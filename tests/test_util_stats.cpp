// Tests for moment accumulation, merging, and histogramming — the machinery
// behind the paper's Figure 8/11 annotations (skewness, kurtosis).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using tess::util::Histogram;
using tess::util::Moments;
using tess::util::Rng;

TEST(Moments, KnownSmallSample) {
  Moments m;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.add(x);
  EXPECT_EQ(m.count(), 8u);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_DOUBLE_EQ(m.variance(), 4.0);
  EXPECT_DOUBLE_EQ(m.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(m.min(), 2.0);
  EXPECT_DOUBLE_EQ(m.max(), 9.0);
}

TEST(Moments, SymmetricSampleHasZeroSkew) {
  Moments m;
  for (double x : {-2.0, -1.0, 0.0, 1.0, 2.0}) m.add(x);
  EXPECT_NEAR(m.skewness(), 0.0, 1e-12);
}

TEST(Moments, GaussianSkewKurtosis) {
  Rng rng(99);
  Moments m;
  for (int i = 0; i < 200000; ++i) m.add(rng.normal());
  EXPECT_NEAR(m.mean(), 0.0, 0.02);
  EXPECT_NEAR(m.variance(), 1.0, 0.02);
  EXPECT_NEAR(m.skewness(), 0.0, 0.05);
  EXPECT_NEAR(m.kurtosis(), 3.0, 0.1);  // Pearson convention
}

TEST(Moments, ExponentialIsRightSkewed) {
  Rng rng(5);
  Moments m;
  for (int i = 0; i < 100000; ++i) m.add(-std::log(1.0 - rng.uniform()));
  EXPECT_NEAR(m.skewness(), 2.0, 0.15);   // exponential: skew 2
  EXPECT_NEAR(m.kurtosis(), 9.0, 0.9);    // exponential: kurtosis 9
}

TEST(Moments, MergeMatchesSequential) {
  Rng rng(11);
  Moments all, a, b;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(0, 10);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_NEAR(a.skewness(), all.skewness(), 1e-8);
  EXPECT_NEAR(a.kurtosis(), all.kurtosis(), 1e-8);
}

TEST(Moments, MergeWithEmpty) {
  Moments a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Histogram, BinningAndEdges) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.0);    // bin 0
  h.add(0.999);  // bin 0
  h.add(1.0);    // bin 1
  h.add(9.999);  // bin 9
  h.add(10.0);   // top edge -> last bin
  h.add(-0.1);   // underflow
  h.add(10.5);   // overflow
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_DOUBLE_EQ(h.bin_width(), 1.0);
}

// Every caller (tess_tool, the query service, the in-situ reduction) passes
// its bin count through the constructor, which refuses zero bins before a
// sample can be binned into a bin that does not exist.
TEST(Histogram, ZeroBinsThrows) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, FractionBelow) {
  Histogram h(0.0, 1.0, 100);
  // 75 samples in the lowest 10% of the range, 25 spread above.
  for (int i = 0; i < 75; ++i) h.add(0.05);
  for (int i = 0; i < 25; ++i) h.add(0.5);
  EXPECT_DOUBLE_EQ(h.fraction_below(0.1), 0.75);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a(0, 1, 4), b(0, 1, 4);
  a.add(0.1);
  b.add(0.1);
  b.add(0.9);
  a.merge(b);
  EXPECT_EQ(a.count(0), 2u);
  EXPECT_EQ(a.count(3), 1u);
  EXPECT_EQ(a.moments().count(), 3u);
}

TEST(Histogram, RenderContainsAnnotations) {
  Histogram h(0, 2, 10);
  for (int i = 0; i < 50; ++i) h.add(0.1);
  const auto s = h.render();
  EXPECT_NE(s.find("bins 10"), std::string::npos);
  EXPECT_NE(s.find("skewness"), std::string::npos);
  EXPECT_NE(s.find("kurtosis"), std::string::npos);
}

TEST(Table, RendersAlignedColumns) {
  tess::util::Table t({"a", "longheader", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row({"10", "20"});
  const auto s = t.render();
  EXPECT_NE(s.find("longheader"), std::string::npos);
  EXPECT_NE(s.find("10"), std::string::npos);
  // Header, separator, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}
