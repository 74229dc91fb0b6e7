// Tests for the timing utilities (wall clock and per-thread CPU time).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "util/timer.hpp"

using tess::util::ScopedTimer;
using tess::util::ThreadCpuTimer;
using tess::util::Timer;

namespace {

// Busy-spin for roughly `ms` of CPU time.
void burn_cpu(int ms) {
  ThreadCpuTimer t;
  t.start();
  volatile double x = 1.0;
  while (t.seconds() * 1000.0 < ms) x = x * 1.0000001 + 1e-9;
  (void)x;
}

}  // namespace

TEST(Timer, AccumulatesAcrossStartStop) {
  Timer t;
  EXPECT_DOUBLE_EQ(t.seconds(), 0.0);
  t.start();
  burn_cpu(5);
  t.stop();
  const double first = t.seconds();
  EXPECT_GT(first, 0.0);
  t.start();
  burn_cpu(5);
  t.stop();
  EXPECT_GT(t.seconds(), first);
}

TEST(Timer, ResetClears) {
  Timer t;
  t.start();
  burn_cpu(2);
  t.reset();
  EXPECT_DOUBLE_EQ(t.seconds(), 0.0);
  EXPECT_FALSE(t.running());
}

TEST(Timer, IdempotentStartStop) {
  Timer t;
  t.start();
  t.start();  // no-op
  EXPECT_TRUE(t.running());
  t.stop();
  t.stop();  // no-op
  EXPECT_FALSE(t.running());
}

TEST(Timer, ScopedGuardRuns) {
  Timer t;
  {
    ScopedTimer guard(t);
    burn_cpu(2);
  }
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_FALSE(t.running());
}

TEST(ThreadCpuTimer, CountsOwnWorkOnly) {
  // Another thread burning CPU must not inflate this thread's CPU timer.
  ThreadCpuTimer mine;
  std::atomic<bool> stop{false};
  std::thread other([&] {
    while (!stop.load()) {
      volatile double x = 1.0;
      for (int i = 0; i < 100000; ++i) x = x * 1.0000001;
      (void)x;
    }
  });
  mine.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  mine.stop();
  stop.store(true);
  other.join();
  // While sleeping, this thread used (almost) no CPU even though the other
  // thread was saturating the core.
  EXPECT_LT(mine.seconds(), 0.02);
}

TEST(ThreadCpuTimer, MeasuresBusyWork) {
  ThreadCpuTimer t;
  t.start();
  burn_cpu(10);
  t.stop();
  EXPECT_GE(t.seconds(), 0.009);
}
