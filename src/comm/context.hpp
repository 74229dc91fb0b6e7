// Shared-process message-passing context.
//
// This is the substrate that stands in for MPI (see DESIGN.md §1): a fixed
// set of ranks, each executing on its own thread, exchanging tagged byte
// messages through per-rank mailboxes. The public typed API lives in
// comm/comm.hpp; this header holds the untyped machinery.
//
// Since PR 5 the transport carries reliable-delivery metadata: every
// message gets a per-(src, dst, tag) sequence number at post time, and a
// mailbox delivers a channel strictly in sequence order, purging stale
// duplicates. With the fault injector (comm/fault.hpp) disarmed this is
// invisible — one producer per channel pushes in sequence order, so
// delivery degenerates to the old FIFO matching. Armed, it is what heals
// reordering and duplication, and what makes a dropped message a *gap* the
// receiver can wait out (the drop sits in a per-channel "limbo" buffer —
// modeling the sender-side retransmit buffer a real network stack keeps —
// until enough recovery ticks release it) rather than a silent stream
// shift. Rank retirement is tracked here too, so a blocking pop or barrier
// whose peer has exited raises RankRetiredError instead of hanging — the
// latent-hang fix, active with or without fault injection.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

namespace tess::comm {

class Context;

/// One in-flight message: source rank, user tag, raw payload, plus the
/// reliable-delivery metadata stamped by Context::post.
struct Message {
  int source = -1;
  int tag = 0;
  /// Per-(source, dest, tag) send ordinal; receivers deliver seq-ordered.
  std::uint64_t seq = 0;
  /// Injected maturity delay: invisible to matching until this many scans
  /// of its channel have ticked it to zero (0 = deliverable immediately).
  int delay = 0;
  std::vector<std::byte> payload;
};

/// Blocking MPMC mailbox with (source, tag) matching semantics, i.e. the
/// equivalent of an MPI receive queue for one rank.
class Mailbox {
 public:
  /// Enqueue `msg` plus `duplicates` extra copies of it under one lock, so
  /// no scan can see part of the set: the scan that delivers the sequence
  /// number also purges every other copy.
  void push(Message msg, int duplicates = 0);

  /// Block until the next in-sequence message with matching source and tag
  /// is available and return it. Messages from the same source with the
  /// same tag are delivered in send order (MPI's non-overtaking rule —
  /// enforced by sequence number, so injected reordering cannot break it).
  /// Throws RankRetiredError if `source` has exited and no deliverable
  /// message remains (and none can: a dead sender's limbo is lost).
  Message pop(int source, int tag);

  /// Bounded-wait pop: like pop but gives up after `timeout`, returning
  /// nullopt. Each call ticks the channel's limbo recovery twice (once at
  /// entry, once at the deadline), so retry counts — not wall-clock — decide
  /// when a dropped message is recovered: deterministic under any scheduler.
  /// Throws RankRetiredError as pop does.
  std::optional<Message> pop_for(int source, int tag,
                                 std::chrono::milliseconds timeout);

  /// Non-blocking probe: true if a deliverable (in-sequence, mature)
  /// matching message is queued.
  bool probe(int source, int tag);

 private:
  friend class Context;

  /// Scan the queue under lock_: purge stale duplicates (seq < expected),
  /// optionally tick delay counters for the channel, and deliver the
  /// in-sequence head if it is mature. Returns false if nothing deliverable.
  bool scan_locked(int source, int tag, bool tick_delays, Message& out);

  /// Pull any limbo messages the recovery tick released into the queue.
  /// `decrement` is the tick itself (see Context::take_recovered).
  void absorb_recovered_locked(int source, int tag, bool decrement);

  Context* ctx_ = nullptr;
  int owner_ = -1;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  /// Next expected sequence number per (source, tag) channel.
  std::map<std::pair<int, int>, std::uint64_t> next_seq_;
};

/// State shared by all ranks of one Runtime::run invocation.
class Context {
 public:
  explicit Context(int size);

  [[nodiscard]] int size() const { return size_; }
  Mailbox& mailbox(int rank) { return mailboxes_[static_cast<std::size_t>(rank)]; }

  /// Stamp a sequence number on the payload and deliver it to `dest`'s
  /// mailbox — or, when the fault injector is armed, let the plan drop it
  /// into limbo, delay it, or duplicate it first. All sends must go through
  /// here so the sequence space stays consistent.
  void post(int src, int dest, int tag, std::vector<std::byte> payload);

  /// Reusable rendezvous for all `size` ranks (central counter + phase flip;
  /// correctness does not depend on std::barrier quirks). Throws
  /// RankRetiredError instead of blocking forever if a peer has exited
  /// (before arriving, or while this rank waits). `caller_rank` feeds the
  /// fault injector's per-rank op counter; -1 skips that accounting.
  void barrier(int caller_rank = -1);

  /// Mark `rank` as exited (cleanly or by exception). Wakes every blocked
  /// barrier/pop so waiters can fail fast instead of hanging. Called by
  /// Runtime as each rank function returns or throws.
  void retire_rank(int rank);
  [[nodiscard]] bool is_retired(int rank) const;
  [[nodiscard]] bool any_retired() const {
    return retired_count_.load(std::memory_order_acquire) > 0;
  }

  /// One recovery tick on channel (src, dst, tag): decrement the limbo
  /// head's countdown (if `decrement`), release every head entry that
  /// reached zero (in sequence order), and return them for the caller to
  /// enqueue. If `src` has retired its limbo is unrecoverable: entries are
  /// counted lost and discarded.
  std::vector<Message> take_recovered(int src, int dst, int tag, bool decrement);

  /// Whether channel (src, dst, tag) still has undelivered limbo entries —
  /// i.e. a dropped-but-recoverable message is in flight, so the channel is
  /// not dead even if its sender has (cleanly) exited.
  [[nodiscard]] bool limbo_pending(int src, int dst, int tag) const;

  /// Bytes pushed through mailboxes since construction (for the
  /// communication-volume statistics the scaling benches report).
  void add_traffic(std::size_t bytes);
  [[nodiscard]] std::uint64_t traffic_bytes() const;

 private:
  int size_;
  std::vector<Mailbox> mailboxes_;

  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_phase_ = 0;

  /// One flag per rank; count is the fast wait-predicate check.
  std::unique_ptr<std::atomic<bool>[]> retired_;
  std::atomic<int> retired_count_{0};

  std::mutex seq_mutex_;
  std::map<std::tuple<int, int, int>, std::uint64_t> send_seq_;

  struct LimboEntry {
    Message msg;
    int remaining = 1;  ///< recovery ticks until release
  };
  mutable std::mutex limbo_mutex_;
  std::map<std::tuple<int, int, int>, std::deque<LimboEntry>> limbo_;

  mutable std::mutex traffic_mutex_;
  std::uint64_t traffic_ = 0;
};

}  // namespace tess::comm
