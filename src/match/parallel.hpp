// Intra-query parallel enumeration: split one Match() call's root search
// frontier across the executor pool.
//
// Racing (psi/racer.hpp) gives inter-variant parallelism only — a
// straggler query with one huge search tree still runs its winning
// matcher on a single core. MatchParallel is the intra-query rung: it
// partitions the root candidate frontier (the first enumerated query
// vertex's candidate list) into contiguous blocks, spawns one range task
// per block as a cancellable TaskGroup on the shared executor, and merges
// the per-range outcomes into one MatchResult. Each range task is an
// ordinary Match() call with MatchOptions::{root_range, num_root_ranges}
// set (see SplitRootCandidates) — per-thread CandidateScratch, the
// candidate index and the CostGuard machinery all apply unchanged.
//
// Invariants (held by construction, enforced by
// tests/match_parallel_test.cpp):
//  * Deterministic emission: per-range embeddings are buffered and
//    released to the caller's sink in range order, so the stream is
//    byte-identical to the serial search's, split on or off, at any
//    width.
//  * Budget exactness: `max_embeddings` applies to the merged stream. A
//    shared budget watches the *committed prefix* — the embeddings of
//    finished ranges in order from range 0 — and fast-cancels the group
//    the moment that prefix alone reaches the cap: everything still
//    running lies beyond the determined stream. Counting any range's
//    finds against the cap before all earlier ranges finished would be
//    unsound (it could cancel work the serial stream still needs).
//  * Exact stats folding: per-range MatchStats merge (MatchStats::Add)
//    to the serial counters exactly when the search completes uncapped —
//    the shared depth-0 node and per-task candidate building are counted
//    by the primary range only — and MatchKernelStats records one
//    logical Match (the split driver notes the merged stats once).
//  * Split never changes answers — only wall-clock. Displaced range
//    tasks (admission rejection or shedding) re-run inline on the
//    caller, in range order, so a bounded pool degrades to the serial
//    search instead of losing ranges.
//
// Split-task deadlines ride the per-task EDF path: every range task
// queues under the call's own MatchOptions::deadline, so a split probe
// escalation keeps its urgency in a shared pool.

#ifndef PSI_MATCH_PARALLEL_HPP_
#define PSI_MATCH_PARALLEL_HPP_

#include <cstddef>

#include "match/matcher.hpp"

namespace psi {

class Executor;  // exec/executor.hpp

/// Knobs for one MatchParallel call.
struct ParallelMatchOptions {
  /// Requested split width (number of root-frontier blocks). <= 1 runs
  /// the plain serial Match().
  size_t split = 0;
  /// Minimum estimated root-frontier candidates per range task; the
  /// effective width is reduced (possibly to 1 = serial) so no task gets
  /// a smaller share — per-task candidate-building overhead is not worth
  /// amortizing over tiny slices.
  size_t min_slice = 8;
  /// Pool the range tasks run on; nullptr = Executor::Shared().
  Executor* executor = nullptr;

  /// split = PSI_MATCH_SPLIT, min_slice = PSI_MATCH_SPLIT_MIN_SLICE.
  static ParallelMatchOptions FromEnv();
};

/// Runs `matcher.Match(query, opts)` with the root frontier split across
/// `po.split` executor tasks. Falls back to the serial call when the
/// width (after the min_slice clamp) is 1, the matcher does not support
/// root splitting, the query is empty, `opts.max_embeddings` is 0, or
/// both stop-token slots of `opts` are taken (the split needs `stop2`
/// for its shared-budget fast-cancel). The returned MatchResult — stream,
/// count, completeness flags, stats — is equivalent to the serial call's;
/// `elapsed` is this call's wall-clock.
///
/// Thread-safe and nestable: calling from inside a pool task is fine
/// (the range group's Wait() helps drain its own tasks).
MatchResult MatchParallel(const Matcher& matcher, const Graph& query,
                          const MatchOptions& opts,
                          const ParallelMatchOptions& po);

}  // namespace psi

#endif  // PSI_MATCH_PARALLEL_HPP_
