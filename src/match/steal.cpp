#include "match/steal.hpp"

#include <utility>

#include "fault/failpoint.hpp"

namespace psi {

EmbeddingQueue::EmbeddingQueue(uint32_t num_ranges, size_t capacity)
    : ranges_(num_ranges), capacity_(capacity == 0 ? 1 : capacity) {
  for (RangeAssembly& r : ranges_) r.merged.complete = true;
}

std::vector<Embedding>* EmbeddingQueue::OpenRange(uint32_t range) {
  std::lock_guard<std::mutex> lock(mu_);
  RangeAssembly& r = ranges_[range];
  r.owner = OwnerState::kRunning;
  ++running_owners_;
  r.segs.emplace_back();
  return &r.segs.back().out;
}

std::vector<Embedding>* EmbeddingQueue::Spill(
    uint32_t range, std::span<const VertexId> prefix) {
  // Failpoint: decline the offer as if the queue were full — the owner
  // enumerates the subtree inline, the deterministic-stream contract is
  // untouched. Evaluated before taking mu_ because an injected kDelay
  // sleeps inside Evaluate.
  const bool injected_decline =
      PSI_FAULT_POINT("steal.offer") == FaultKind::kError;
  std::lock_guard<std::mutex> lock(mu_);
  if (injected_decline) {
    ++declined_;
    return nullptr;
  }
  if (queue_.size() >= capacity_) {
    ++declined_;
    ++queue_full_;
    return nullptr;
  }
  RangeAssembly& r = ranges_[range];
  // Seal the owner's current inline segment, slot the unit's segment in
  // right after it (DFS discovery order == serial stream order), and open
  // a fresh inline segment for whatever the owner finds next.
  r.segs.back().state = SegState::kComplete;
  r.segs.emplace_back();
  r.segs.back().state = SegState::kPending;
  const size_t slot = r.segs.size() - 1;
  std::vector<Embedding>* unit_out = &r.segs.back().out;
  r.segs.emplace_back();
  ++r.pending_units;
  ++spills_;

  StealUnit u;
  u.state.prefix.assign(prefix.begin(), prefix.end());
  u.range = range;
  u.slot = slot;
  u.out = unit_out;
  queue_.push_back(std::move(u));
  cv_.notify_one();
  return &r.segs.back().out;
}

bool EmbeddingQueue::OwnerDone(uint32_t range, const MatchResult& r) {
  bool ready = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RangeAssembly& ra = ranges_[range];
    ra.segs.back().state =
        r.complete ? SegState::kComplete : SegState::kIncomplete;
    ra.merged.stats.Add(r.stats);
    ra.merged.complete = ra.merged.complete && r.complete;
    ra.merged.timed_out = ra.merged.timed_out || r.timed_out;
    ra.merged.cancelled = ra.merged.cancelled || r.cancelled;
    ra.owner = OwnerState::kDone;
    --running_owners_;
    if (RangeReadyLocked(ra) && !ra.reported) {
      ra.reported = true;
      ready = true;
    }
  }
  cv_.notify_all();
  return ready;
}

bool EmbeddingQueue::TryPop(uint32_t thief_range, StealUnit* out) {
  // Failpoint (kDelay only — the sleep happens inside Evaluate, before
  // mu_): stretches the window between spill and steal. A forced pop
  // *failure* is deliberately not offered: the drain loop relies on every
  // queued unit eventually popping, so refusing pops at probability 1
  // would livelock the split driver instead of degrading it.
  (void)PSI_FAULT_POINT("steal.pop");
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.empty()) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  ++in_flight_;
  if (out->range != thief_range) ++stolen_;
  return true;
}

bool EmbeddingQueue::UnitDone(const StealUnit& u, const MatchResult& r) {
  bool ready = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RangeAssembly& ra = ranges_[u.range];
    ra.segs[u.slot].state =
        r.complete ? SegState::kComplete : SegState::kIncomplete;
    ra.merged.stats.Add(r.stats);
    ra.merged.complete = ra.merged.complete && r.complete;
    ra.merged.timed_out = ra.merged.timed_out || r.timed_out;
    ra.merged.cancelled = ra.merged.cancelled || r.cancelled;
    --ra.pending_units;
    --in_flight_;
    if (RangeReadyLocked(ra) && !ra.reported) {
      ra.reported = true;
      ready = true;
    }
  }
  cv_.notify_all();
  return ready;
}

bool EmbeddingQueue::Drained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.empty() && in_flight_ == 0 && running_owners_ == 0;
}

void EmbeddingQueue::WaitForWork(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, timeout, [this] {
    return !queue_.empty() ||
           (in_flight_ == 0 && running_owners_ == 0);
  });
}

void EmbeddingQueue::Collect(uint32_t range, std::vector<Embedding>* buffer,
                             MatchResult* result) {
  std::lock_guard<std::mutex> lock(mu_);
  RangeAssembly& ra = ranges_[range];
  *result = ra.merged;
  for (Segment& seg : ra.segs) {
    for (Embedding& e : seg.out) buffer->push_back(std::move(e));
    if (seg.state == SegState::kComplete) continue;
    // First non-complete segment: its content (possibly empty, for a
    // kPending unit the group stop kept from ever running) is a valid
    // prefix of the serial range stream; everything after it would leave
    // a hole. A pending segment means the subtree was abandoned — report
    // it as a cancellation.
    result->complete = false;
    if (seg.state == SegState::kPending) result->cancelled = true;
    break;
  }
}

uint64_t EmbeddingQueue::spills() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spills_;
}
uint64_t EmbeddingQueue::stolen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stolen_;
}
uint64_t EmbeddingQueue::declined() const {
  std::lock_guard<std::mutex> lock(mu_);
  return declined_;
}
uint64_t EmbeddingQueue::queue_full() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_full_;
}

}  // namespace psi
