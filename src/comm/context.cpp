#include "comm/context.hpp"

#include <algorithm>

#include "comm/fault.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tess::comm {

namespace {
/// Armed blocking pops park this long per wait so limbo recovery and delay
/// maturity keep ticking even when no push ever arrives to wake them
/// (collectives inside a degraded run depend on this for liveness).
constexpr std::chrono::milliseconds kArmedPopTick{1};
}  // namespace

void Mailbox::push(Message msg, int duplicates) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int i = 0; i < duplicates; ++i) queue_.push_back(msg);
    queue_.push_back(std::move(msg));
  }
  cv_.notify_all();
}

bool Mailbox::scan_locked(int source, int tag, bool tick_delays, Message& out) {
  const bool armed = faults().armed();
  // A retired sender can never tick its delays down via further traffic, so
  // maturity is waived — whatever it managed to send is deliverable now.
  const bool src_retired = ctx_ != nullptr && ctx_->is_retired(source);
  std::uint64_t& expected = next_seq_[{source, tag}];
  std::uint64_t purged = 0;
  bool found = false;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->source != source || it->tag != tag) {
      ++it;
      continue;
    }
    if (it->seq < expected) {
      // A duplicate (or the slow copy of one) of a message already
      // delivered: receiver-side dedup discards it.
      it = queue_.erase(it);
      ++purged;
      continue;
    }
    if (armed && !src_retired && tick_delays && it->delay > 0) --it->delay;
    if (!found && it->seq == expected &&
        (!armed || src_retired || it->delay <= 0)) {
      out = std::move(*it);
      it = queue_.erase(it);
      ++expected;
      found = true;
      // Keep scanning: later entries still need their delay tick, and a
      // same-seq duplicate behind us is now stale and purgeable.
      continue;
    }
    ++it;
  }
  if (purged > 0) faults().note_dedup(purged);
  return found;
}

void Mailbox::absorb_recovered_locked(int source, int tag, bool decrement) {
  if (ctx_ == nullptr) return;
  auto released = ctx_->take_recovered(source, owner_, tag, decrement);
  for (auto& msg : released) queue_.push_back(std::move(msg));
}

Message Mailbox::pop(int source, int tag) {
  // Heartbeat at entry only — not per wakeup — so a rank stuck in a recv
  // that never matches stops beating and the flight recorder can name it.
  TESS_HEARTBEAT();
  const bool armed = faults().armed();
  if (armed) faults().on_op(owner_);
  std::unique_lock<std::mutex> lock(mutex_);
  TESS_GAUGE_SET("comm.mailbox.depth", queue_.size());
  Message msg;
  if (armed) absorb_recovered_locked(source, tag, /*decrement=*/true);
  if (scan_locked(source, tag, armed, msg)) return msg;
  // The message is not here yet: everything from now until it arrives is
  // attributable wait, recorded as a span the imbalance analyzer folds
  // into the enclosing phase (see obs/analyze.hpp).
  TESS_COUNT("comm.recv.blocked", 1);
  TESS_SPAN("comm.recv.wait");
  while (true) {
    if (ctx_ != nullptr && ctx_->is_retired(source)) {
      // Drain whatever recovery already released (a killed sender's limbo
      // drains as lost), then decide: a cleanly-exited sender's limbo is
      // still deliverable — keep ticking it — but with nothing queued and
      // nothing in flight the channel is dead.
      if (armed) absorb_recovered_locked(source, tag, /*decrement=*/false);
      if (scan_locked(source, tag, /*tick_delays=*/false, msg)) return msg;
      if (!armed || !ctx_->limbo_pending(source, owner_, tag))
        throw RankRetiredError("recv from rank " + std::to_string(source) +
                               " (tag " + std::to_string(tag) +
                               "): peer rank has exited");
    }
    if (armed) {
      // Timed park: each tick advances limbo recovery and delay maturity,
      // so an injected drop cannot wedge a collective forever.
      cv_.wait_for(lock, kArmedPopTick);
      absorb_recovered_locked(source, tag, /*decrement=*/true);
    } else {
      cv_.wait(lock);
    }
    if (scan_locked(source, tag, armed, msg)) return msg;
  }
}

std::optional<Message> Mailbox::pop_for(int source, int tag,
                                        std::chrono::milliseconds timeout) {
  TESS_HEARTBEAT();
  const bool armed = faults().armed();
  if (armed) faults().on_op(owner_);
  std::unique_lock<std::mutex> lock(mutex_);
  TESS_GAUGE_SET("comm.mailbox.depth", queue_.size());
  Message msg;
  // Entry tick (1 of the call's 2 recovery ticks).
  if (armed) absorb_recovered_locked(source, tag, /*decrement=*/true);
  if (scan_locked(source, tag, armed, msg)) return msg;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  TESS_COUNT("comm.recv.blocked", 1);
  TESS_SPAN("comm.recv.wait");
  while (true) {
    if (ctx_ != nullptr && ctx_->is_retired(source)) {
      if (armed) absorb_recovered_locked(source, tag, /*decrement=*/false);
      if (scan_locked(source, tag, /*tick_delays=*/false, msg)) return msg;
      // Pending limbo from a cleanly-exited sender: not an error — let the
      // bounded wait (and the caller's retries) tick it out.
      if (!armed || !ctx_->limbo_pending(source, owner_, tag))
        throw RankRetiredError("recv from rank " + std::to_string(source) +
                               " (tag " + std::to_string(tag) +
                               "): peer rank has exited");
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      // Deadline tick (2 of 2), then one last look before giving up.
      if (armed) absorb_recovered_locked(source, tag, /*decrement=*/true);
      if (scan_locked(source, tag, armed, msg)) return msg;
      return std::nullopt;
    }
    if (scan_locked(source, tag, armed, msg)) return msg;
  }
}

bool Mailbox::probe(int source, int tag) {
  const bool armed = faults().armed();
  const bool src_retired = ctx_ != nullptr && ctx_->is_retired(source);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = next_seq_.find({source, tag});
  const std::uint64_t expected = it == next_seq_.end() ? 0 : it->second;
  return std::any_of(queue_.begin(), queue_.end(), [&](const Message& m) {
    return m.source == source && m.tag == tag && m.seq == expected &&
           (!armed || src_retired || m.delay <= 0);
  });
}

Context::Context(int size)
    : size_(size),
      mailboxes_(static_cast<std::size_t>(size)),
      retired_(new std::atomic<bool>[static_cast<std::size_t>(size)]) {
  for (int r = 0; r < size; ++r) {
    mailboxes_[static_cast<std::size_t>(r)].ctx_ = this;
    mailboxes_[static_cast<std::size_t>(r)].owner_ = r;
    retired_[static_cast<std::size_t>(r)].store(false, std::memory_order_relaxed);
  }
}

void Context::post(int src, int dest, int tag, std::vector<std::byte> payload) {
  Message msg;
  msg.source = src;
  msg.tag = tag;
  msg.payload = std::move(payload);
  {
    std::lock_guard<std::mutex> lock(seq_mutex_);
    msg.seq = send_seq_[{src, dest, tag}]++;
  }
  auto& inj = faults();
  int duplicates = 0;
  if (inj.armed()) {
    const FaultDecision d = inj.on_message(src, dest, tag, msg.seq);
    if (d.drop) {
      std::lock_guard<std::mutex> lock(limbo_mutex_);
      limbo_[{src, dest, tag}].push_back(
          LimboEntry{std::move(msg), d.recover_after});
      return;
    }
    msg.delay = d.delay_pops;
    duplicates = d.duplicates;
  }
  mailbox(dest).push(std::move(msg), duplicates);
}

std::vector<Message> Context::take_recovered(int src, int dst, int tag,
                                             bool decrement) {
  std::lock_guard<std::mutex> lock(limbo_mutex_);
  const auto it = limbo_.find({src, dst, tag});
  if (it == limbo_.end() || it->second.empty()) return {};
  auto& channel = it->second;
  if (faults().is_killed(src)) {
    // The modeled retransmit buffer died with its killed sender. (A clean
    // exit keeps buffered sends deliverable, like a completed MPI_Bsend.)
    faults().note_lost(channel.size());
    channel.clear();
    return {};
  }
  if (decrement) --channel.front().remaining;
  std::vector<Message> released;
  while (!channel.empty() && channel.front().remaining <= 0) {
    released.push_back(std::move(channel.front().msg));
    channel.pop_front();
  }
  if (!released.empty()) faults().note_recovered(released.size());
  return released;
}

bool Context::limbo_pending(int src, int dst, int tag) const {
  std::lock_guard<std::mutex> lock(limbo_mutex_);
  const auto it = limbo_.find({src, dst, tag});
  return it != limbo_.end() && !it->second.empty();
}

void Context::barrier(int caller_rank) {
  TESS_HEARTBEAT();
  TESS_COUNT("comm.barriers", 1);
  if (caller_rank >= 0 && faults().armed()) faults().on_op(caller_rank);
  std::unique_lock<std::mutex> lock(barrier_mutex_);
  if (any_retired())
    throw RankRetiredError("barrier entered after a peer rank exited");
  const std::uint64_t phase = barrier_phase_;
  if (++barrier_count_ == size_) {
    barrier_count_ = 0;
    ++barrier_phase_;
    barrier_cv_.notify_all();
  } else {
    // Ranks arriving early charge the wait to themselves: the analyzer's
    // barrier-wait attribution is exactly these spans, and the gauge shows
    // how deep the convoy was when each waiter parked.
    TESS_GAUGE_SET("comm.barrier.waiting", barrier_count_);
    TESS_SPAN("comm.barrier.wait");
    barrier_cv_.wait(lock,
                     [&] { return barrier_phase_ != phase || any_retired(); });
    if (barrier_phase_ == phase) {
      // Woken by a retirement, not a phase flip: this barrier can never
      // complete. Withdraw so the count stays consistent for any
      // still-running rank that also reaches (and then aborts) it.
      --barrier_count_;
      throw RankRetiredError("barrier abandoned: a peer rank exited");
    }
  }
}

void Context::retire_rank(int rank) {
  if (rank < 0 || rank >= size_) return;
  auto& flag = retired_[static_cast<std::size_t>(rank)];
  if (flag.exchange(true, std::memory_order_acq_rel)) return;
  retired_count_.fetch_add(1, std::memory_order_acq_rel);
  // Lock-then-notify (empty critical section) on every waiter's mutex: any
  // thread between its retirement check and its cv wait still holds the
  // mutex, so acquiring it here orders this notify after that wait begins —
  // no missed wakeup.
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
  }
  barrier_cv_.notify_all();
  for (auto& mb : mailboxes_) {
    {
      std::lock_guard<std::mutex> lock(mb.mutex_);
    }
    mb.cv_.notify_all();
  }
}

bool Context::is_retired(int rank) const {
  if (rank < 0 || rank >= size_) return false;
  return retired_[static_cast<std::size_t>(rank)].load(std::memory_order_acquire);
}

void Context::add_traffic(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(traffic_mutex_);
  traffic_ += bytes;
}

std::uint64_t Context::traffic_bytes() const {
  std::lock_guard<std::mutex> lock(traffic_mutex_);
  return traffic_;
}

}  // namespace tess::comm
