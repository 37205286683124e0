#include "match/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "core/env.hpp"
#include "exec/executor.hpp"

namespace psi {

namespace {

// Outcome of one root range. `finished` flips only when a real run (pool
// or inline) recorded its result; a displaced task (admission rejection,
// shed, or fast-cancel) leaves it false for the inline pass.
struct RangeState {
  std::vector<Embedding> buffer;
  MatchResult result;
  bool finished = false;
};

// Shared split bookkeeping. `frontier` is the first range whose outcome
// is still unknown; `committed` counts the embeddings of the complete
// prefix [0, frontier). Only that prefix is part of the determined
// stream, so only it may count against max_embeddings — a later range's
// finds could be discarded entirely if an earlier range fills the cap
// first.
struct SplitShared {
  std::mutex mu;
  std::vector<RangeState> ranges;
  size_t frontier = 0;      // guarded by mu
  uint64_t committed = 0;   // guarded by mu
  bool budget_hit = false;  // guarded by mu
  // Monotonic mirrors for the sink-side early-exit hint. Both only grow,
  // and frontier_base reaches its final value for frontier == k before
  // (or atomically with) frontier_idx becoming k, so a task observing
  // idx == k reads a base that is <= the true committed count of its
  // prefix — the hint can only fire when justified, never early.
  std::atomic<uint32_t> frontier_idx{0};
  std::atomic<uint64_t> frontier_base{0};
};

// Advances the frontier over finished-and-complete ranges; returns true
// when this advance pushed the committed prefix to (or past) the cap for
// the first time. Requires st.mu held.
bool AdvanceFrontierLocked(SplitShared& st, uint64_t cap) {
  bool newly_hit = false;
  while (st.frontier < st.ranges.size()) {
    const RangeState& r = st.ranges[st.frontier];
    if (!r.finished || !r.result.complete) break;
    st.committed += r.buffer.size();
    ++st.frontier;
    st.frontier_base.store(st.committed, std::memory_order_release);
    st.frontier_idx.store(static_cast<uint32_t>(st.frontier),
                          std::memory_order_release);
    if (st.committed >= cap && !st.budget_hit) {
      st.budget_hit = true;
      newly_hit = true;
    }
  }
  return newly_hit;
}

}  // namespace

ParallelMatchOptions ParallelMatchOptions::FromEnv() {
  ParallelMatchOptions po;
  po.split = static_cast<size_t>(MatchSplit());
  po.min_slice = static_cast<size_t>(MatchSplitMinSlice());
  return po;
}

MatchResult MatchParallel(const Matcher& matcher, const Graph& query,
                          const MatchOptions& opts,
                          const ParallelMatchOptions& po) {
  const Graph* data = matcher.data();
  // Serial fallbacks: width 1, unsupported matcher, the empty query (its
  // single empty embedding must not be emitted once per range), a zero
  // cap (degenerate — serial semantics stop at the first find), or a call
  // that already occupies both stop-token slots (the split needs stop2
  // for its shared-budget fast-cancel).
  if (po.split <= 1 || !matcher.SupportsRootSplit() || data == nullptr ||
      query.num_vertices() == 0 || opts.max_embeddings == 0 ||
      opts.stop2 != nullptr) {
    return matcher.Match(query, opts);
  }

  // Width clamp: the root frontier is some query vertex's label list, so
  // the rarest query label bounds it from above. Keep every range at
  // least min_slice estimated candidates wide.
  size_t estimate = std::numeric_limits<size_t>::max();
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    estimate = std::min(estimate, data->VerticesWithLabel(query.label(u)).size());
  }
  const size_t min_slice = std::max<size_t>(1, po.min_slice);
  const size_t width =
      std::min(po.split, std::max<size_t>(1, estimate / min_slice));
  if (width <= 1) return matcher.Match(query, opts);

  const auto start = std::chrono::steady_clock::now();
  const uint64_t cap = opts.max_embeddings;
  const uint32_t k_total = static_cast<uint32_t>(width);

  Executor& exec = po.executor != nullptr ? *po.executor : Executor::Shared();
  TaskGroup group(exec, opts.deadline);

  SplitShared st;
  st.ranges.resize(k_total);

  uint64_t pool_runs = 0;    // guarded by st.mu
  uint64_t inline_runs = 0;  // guarded by st.mu

  // Folds one range's outcome into the shared state; fires the group
  // fast-cancel when the committed prefix reaches the cap. Idempotent: the
  // first record for a range wins, any later one is dropped (defence
  // against a range being recorded twice, e.g. a partially executed pool
  // run followed by an inline re-run).
  auto record_range = [&](uint32_t k, std::vector<Embedding>&& buffer,
                          const MatchResult& r, bool inline_run) {
    bool newly_hit = false;
    {
      std::lock_guard<std::mutex> lock(st.mu);
      RangeState& range = st.ranges[k];
      if (range.finished) return;
      range.buffer = std::move(buffer);
      range.result = r;
      range.finished = true;
      inline_run ? ++inline_runs : ++pool_runs;
      newly_hit = AdvanceFrontierLocked(st, cap);
    }
    if (newly_hit) group.RequestStop();
  };

  // Runs range k to completion on the calling thread and folds its
  // outcome in.
  auto run_range = [&](uint32_t k, bool inline_run) {
    MatchOptions mo = opts;
    mo.root_range = k;
    mo.num_root_ranges = k_total;
    mo.stop2 = group.stop_token();
    uint64_t local = 0;
    std::vector<Embedding> buffer;
    mo.sink = [&st, &local, &buffer, k, cap](const Embedding& e) {
      buffer.push_back(e);
      ++local;
      // Early-exit hint: once every earlier range is committed and the
      // prefix plus this range's finds covers the cap, the stream is
      // fully determined up to here — stop enumerating. Stale reads only
      // delay the exit (both mirrors are monotonic), never trigger it
      // early, so relaxed/acquire ordering suffices.
      if (st.frontier_idx.load(std::memory_order_acquire) == k &&
          st.frontier_base.load(std::memory_order_acquire) + local >= cap) {
        return false;
      }
      return true;
    };
    const MatchResult r = matcher.Match(query, mo);
    record_range(k, std::move(buffer), r, inline_run);
  };

  // Spawn one task per range, each queued under the call's own deadline
  // (per-task EDF: a split escalation keeps its urgency in a shared
  // pool). Displaced ranges — rejected here, or started as
  // kCancelled/kShed — stay unfinished and fall to the inline pass.
  for (uint32_t k = 0; k < k_total; ++k) {
    group.Spawn(
        [&run_range, k](TaskStart start_mode) {
          if (start_mode != TaskStart::kRun) return;
          run_range(k, /*inline_run=*/false);
        },
        opts.deadline);
  }
  group.Wait();

  // Inline pass: finish displaced ranges in range order on this thread.
  // Stop as soon as the merged outcome is determined — committed prefix
  // at the cap, or an earlier range already incomplete (its
  // timeout/cancellation truncates the stream there regardless of what
  // later ranges would find).
  for (uint32_t k = 0; k < k_total; ++k) {
    bool run_it = false;
    {
      std::lock_guard<std::mutex> lock(st.mu);
      if (st.committed >= cap) break;
      const RangeState& r = st.ranges[k];
      if (r.finished && !r.result.complete) break;
      run_it = !r.finished;
    }
    if (run_it) run_range(k, /*inline_run=*/true);
  }

  // Merge: release buffered embeddings to the caller's sink in range
  // order — byte-identical to the serial stream — and stop at the cap or
  // when the sink declines more, exactly as the serial search would.
  MatchResult out;
  bool determined = false;
  bool incomplete = false;
  for (uint32_t k = 0; k < k_total && !determined && !incomplete; ++k) {
    RangeState& r = st.ranges[k];
    if (!r.finished) {
      // Only reachable past a budget stop or an incomplete range, both of
      // which exit the loop first; defensively treat as cancelled.
      out.cancelled = true;
      incomplete = true;
      break;
    }
    for (const Embedding& e : r.buffer) {
      ++out.embedding_count;
      const bool more = opts.sink ? opts.sink(e) : true;
      if (out.embedding_count >= cap || !more) {
        determined = true;
        break;
      }
    }
    if (!determined && !r.result.complete) {
      out.timed_out = r.result.timed_out;
      out.cancelled = r.result.cancelled;
      incomplete = true;
    }
  }
  out.complete = !incomplete;

  // Stats fold over every range that actually ran (the primary-range
  // discipline in the matchers makes this equal the serial counters when
  // the search completed uncapped), noted once per logical call.
  bool budget_hit = false;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    for (const RangeState& r : st.ranges) {
      if (r.finished) out.stats.Add(r.result.stats);
    }
    budget_hit = st.budget_hit;
  }
  matcher.kernel_stats().Note(out.stats, matcher.candidate_index() != nullptr);
  matcher.kernel_stats().NoteSplit(pool_runs, inline_runs, budget_hit);

  out.elapsed = std::chrono::steady_clock::now() - start;
  return out;
}

}  // namespace psi
