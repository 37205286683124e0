// Common contract for all subgraph-isomorphism engines (VF2, QuickSI,
// GraphQL, sPath).
//
// A Matcher is prepared once per stored graph (building whatever per-graph
// index the algorithm maintains) and can then serve any number of Match()
// calls concurrently: Match is const and keeps all search state on the
// caller's stack, which is what lets the Ψ racer run several variants over
// one shared index.

#ifndef PSI_MATCH_MATCHER_HPP_
#define PSI_MATCH_MATCHER_HPP_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/graph.hpp"
#include "core/status.hpp"
#include "core/stop_token.hpp"

namespace psi {

class CandidateIndex;  // match/candidate_index.hpp
class Executor;        // exec/executor.hpp
struct PoolGauges;     // metrics/metrics.hpp

/// One embedding: data-graph vertex assigned to each query vertex
/// (indexed by query vertex id).
using Embedding = std::vector<VertexId>;

/// Receives embeddings as they are found. Return false to stop the search
/// early (used by tests and by decision-mode callers).
using EmbeddingSink = std::function<bool(const Embedding&)>;

/// Knobs for one Match() call.
struct MatchOptions {
  /// Stop after this many embeddings. The paper caps NFV searches at 1000
  /// (§3.2); FTV verification uses 1 (decision: first match wins).
  uint64_t max_embeddings = 1000;
  /// Per-call wall-clock cap; stands in for the paper's 10-minute limit.
  Deadline deadline;
  /// Cooperative cancellation, tripped by the Ψ racer when a sibling wins.
  const StopToken* stop = nullptr;
  /// Optional secondary token (used when a search must listen to two
  /// cancellation sources, e.g. Grapes verification inside a Ψ race).
  const StopToken* stop2 = nullptr;
  /// Optional embedding consumer; leave empty to only count.
  EmbeddingSink sink;
  /// How many search steps between stop/deadline polls.
  uint32_t guard_period = 256;

  // ---- Root-frontier split (match/parallel.hpp) ----
  //
  // When num_root_ranges > 1 this call is one task of a split search: the
  // first enumerated query vertex draws candidates only from block
  // `root_range` of its root candidate list (SplitRootCandidates); all
  // deeper levels are unaffected. Split tasks also follow a stats
  // discipline so that per-range partials merged with MatchStats::Add
  // equal the serial counters exactly: the shared depth-0 recursion node
  // and any pre-enumeration candidate-building work are counted by the
  // primary range (root_range == 0) only, and the matcher skips its
  // MatchKernelStats::Note — the split driver notes the merged stats
  // once per logical Match.

  /// Which root block this task enumerates (0-based).
  uint32_t root_range = 0;
  /// Total number of root blocks; 0 or 1 = unsplit (the default).
  uint32_t num_root_ranges = 0;

  // ---- Multiway (WCOJ) extension kernel (match/intersect.hpp) ----
  //
  // When enabled and the candidate index is active, a matcher extends a
  // partial embedding whose next query vertex has >= 2 matched backward
  // neighbours by intersecting all their label slices at once instead of
  // enumerating one and checking the rest per candidate. The embedding
  // stream is byte-identical either way (the survivor set is the same
  // intersection, emitted in the same (degree, id) slice order); only the
  // effort counters move.

  /// false = the enumerate-then-check inner loop, kept as the reference
  /// the differential tests and the kernel bench compare against.
  bool multiway = true;

  bool split_task() const { return num_root_ranges > 1; }
  /// True for the range that owns the shared (pre-enumeration) counters.
  bool primary_range() const { return !split_task() || root_range == 0; }
};

/// The contiguous block of the root candidate list a split task
/// enumerates: [k*n/K, (k+1)*n/K) for range k of K — blocks partition the
/// list in order, so concatenating the per-range embedding streams in
/// range order reproduces the serial stream byte for byte.
inline std::span<const VertexId> SplitRootCandidates(
    std::span<const VertexId> all, const MatchOptions& o) {
  if (!o.split_task()) return all;
  const size_t n = all.size();
  const size_t k = o.root_range;
  const size_t kk = o.num_root_ranges;
  const size_t begin = n * k / kk;
  const size_t end = n * (k + 1) / kk;
  return all.subspan(begin, end - begin);
}

/// Search-effort counters, for tests and ablation benches. The kernel
/// counters are zero when the candidate index (candidate_index.hpp) is
/// disabled for the call.
struct MatchStats {
  uint64_t recursion_nodes = 0;   ///< backtracking tree nodes expanded
  uint64_t candidates_tried = 0;  ///< (query vertex, data vertex) pairs tried
  uint64_t nlf_rejects = 0;       ///< candidates dropped by the O(1) NLF
                                  ///< prefilter before any per-pair work
                                  ///< (not counted in candidates_tried)
  uint64_t bitset_edge_checks = 0;  ///< edge checks answered by hub bitsets
  uint64_t slice_candidates = 0;    ///< candidates drawn from label slices
                                    ///< (sum of enumerated slice sizes)
  uint64_t multiway_intersections = 0;  ///< WCOJ extensions performed
                                        ///< (match/intersect.hpp)
  uint64_t intersection_shortcuts = 0;  ///< extensions refuted before or
                                        ///< during intersection (an empty
                                        ///< input or empty partial result)

  void Add(const MatchStats& o) {
    recursion_nodes += o.recursion_nodes;
    candidates_tried += o.candidates_tried;
    nlf_rejects += o.nlf_rejects;
    bitset_edge_checks += o.bitset_edge_checks;
    slice_candidates += o.slice_candidates;
    multiway_intersections += o.multiway_intersections;
    intersection_shortcuts += o.intersection_shortcuts;
  }
};

/// Thread-safe accumulator of kernel effort across Match() calls — the
/// serving-side observability hook, surfaced through PoolGauges next to
/// the executor's own counters (FilterStageStats is the sibling for the
/// FTV filter stage). Every Matcher carries one; the Grapes/GGSX
/// verification kernels keep their own. Snapshot with AddTo.
class MatchKernelStats {
 public:
  /// One finished Match() call; `index_used` tells whether the candidate
  /// index was active for it.
  void Note(const MatchStats& s, bool index_used) {
    matches_.fetch_add(1, std::memory_order_relaxed);
    if (index_used) indexed_matches_.fetch_add(1, std::memory_order_relaxed);
    candidates_tried_.fetch_add(s.candidates_tried,
                                std::memory_order_relaxed);
    nlf_rejects_.fetch_add(s.nlf_rejects, std::memory_order_relaxed);
    bitset_checks_.fetch_add(s.bitset_edge_checks, std::memory_order_relaxed);
    slice_candidates_.fetch_add(s.slice_candidates,
                                std::memory_order_relaxed);
    multiway_intersections_.fetch_add(s.multiway_intersections,
                                      std::memory_order_relaxed);
    intersection_shortcuts_.fetch_add(s.intersection_shortcuts,
                                      std::memory_order_relaxed);
  }

  /// One split-enumerated Match() call (match/parallel.hpp):
  /// `pool_tasks` range tasks ran on the executor, `inline_tasks` were
  /// displaced by admission control and re-ran inline on the caller, and
  /// `budget_stop` tells whether the shared embedding budget tripped the
  /// group's fast-cancel. The logical call itself is still recorded via
  /// Note (the split driver calls it once with the merged stats).
  void NoteSplit(uint64_t pool_tasks, uint64_t inline_tasks,
                 bool budget_stop) {
    split_matches_.fetch_add(1, std::memory_order_relaxed);
    split_tasks_.fetch_add(pool_tasks, std::memory_order_relaxed);
    split_tasks_inline_.fetch_add(inline_tasks, std::memory_order_relaxed);
    if (budget_stop) {
      split_budget_stops_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Adds this instance's counters into a PoolGauges snapshot
  /// (metrics/metrics.hpp kernel_* fields).
  void AddTo(PoolGauges* g) const;

 private:
  std::atomic<uint64_t> matches_{0};
  std::atomic<uint64_t> indexed_matches_{0};
  std::atomic<uint64_t> candidates_tried_{0};
  std::atomic<uint64_t> nlf_rejects_{0};
  std::atomic<uint64_t> bitset_checks_{0};
  std::atomic<uint64_t> slice_candidates_{0};
  std::atomic<uint64_t> multiway_intersections_{0};
  std::atomic<uint64_t> intersection_shortcuts_{0};
  std::atomic<uint64_t> split_matches_{0};
  std::atomic<uint64_t> split_tasks_{0};
  std::atomic<uint64_t> split_tasks_inline_{0};
  std::atomic<uint64_t> split_budget_stops_{0};
};

/// Outcome of one Match() call.
struct MatchResult {
  uint64_t embedding_count = 0;
  /// Search ran to completion (exhausted the space or hit max_embeddings).
  bool complete = false;
  /// Stopped by the deadline — a "killed"/"hard" query in paper terms.
  bool timed_out = false;
  /// Stopped by the StopToken — lost a Ψ race.
  bool cancelled = false;
  std::chrono::nanoseconds elapsed{0};
  MatchStats stats;

  bool found() const { return embedding_count > 0; }
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(elapsed).count();
  }
};

/// A subgraph-matching engine bound to one stored graph.
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Short stable identifier: "VF2", "QSI", "GQL", "SPA".
  virtual std::string_view name() const = 0;

  /// Builds the per-stored-graph index. Must be called exactly once before
  /// Match. Not subject to the query cap (paper §3.2: the 10' limit does
  /// not apply to indexing). A build that parallelizes (sPath's distance
  /// signatures) runs on the calling thread plus helpers on the pool set
  /// by set_executor().
  virtual Status Prepare(const Graph& data) = 0;

  /// Finds embeddings of `query` in the prepared graph. Thread-safe:
  /// concurrent calls on one prepared instance are allowed.
  virtual MatchResult Match(const Graph& query,
                            const MatchOptions& opts) const = 0;

  /// The prepared stored graph, or nullptr before Prepare.
  virtual const Graph* data() const = 0;

  /// Whether Match() honours MatchOptions root_range/num_root_ranges —
  /// the anchored-slice entry point MatchParallel (match/parallel.hpp)
  /// partitions. The split driver falls back to a serial Match() for
  /// matchers that do not.
  virtual bool SupportsRootSplit() const { return false; }

  // ---- Shared candidate-index kernel (match/candidate_index.hpp) ----
  //
  // All four library matchers accelerate candidate enumeration and
  // backward-edge checks through one immutable per-stored-graph
  // CandidateIndex. Inject a prebuilt index *before* Prepare to share one
  // across matchers over the same graph (PsiEngine::Prepare does);
  // without an injection, Prepare builds a private one when the kernel is
  // enabled (PSI_MATCH_INDEX, default on). Injecting nullptr pins the
  // kernel off for this matcher regardless of the environment — the
  // differential tests' "index disabled" arm.

  void set_candidate_index(std::shared_ptr<const CandidateIndex> index) {
    candidate_index_ = std::move(index);
    candidate_index_injected_ = true;
  }
  /// The index Match() uses after Prepare; nullptr = kernel disabled.
  const CandidateIndex* candidate_index() const {
    return candidate_index_.get();
  }
  /// Kernel-effort counters accumulated over every Match() call.
  MatchKernelStats& kernel_stats() const { return kernel_stats_; }

  /// The pool Prepare fans its index build out on; nullptr (the default)
  /// means Executor::Shared(). Set it before Prepare: PsiEngine::Prepare
  /// hands over its own pool, as it hands over the candidate index.
  void set_executor(Executor* executor) { executor_ = executor; }

 protected:
  /// Resolves the index for `data` at Prepare time: keeps a matching
  /// injected index (rebuilding if it was built over a different graph),
  /// builds one when the kernel is enabled, clears it when disabled.
  void PrepareCandidateIndex(const Graph& data);

  /// Kernel-stats recording for one Match() call: a split task must NOT
  /// note itself (the driver notes the merged stats once per logical call
  /// — otherwise a k-way split would inflate `matches` k-fold).
  void NoteMatch(const MatchOptions& opts, const MatchStats& s) const {
    if (!opts.split_task()) {
      kernel_stats_.Note(s, candidate_index() != nullptr);
    }
  }

  std::shared_ptr<const CandidateIndex> candidate_index_;
  bool candidate_index_injected_ = false;
  mutable MatchKernelStats kernel_stats_;
  Executor* executor_ = nullptr;
};

/// Factory signature used by portfolio configuration.
using MatcherFactory = std::function<std::unique_ptr<Matcher>()>;

/// Validates that `emb` is a genuine (non-induced) subgraph-isomorphism
/// embedding of `query` into `data`: injective, label-preserving,
/// edge-preserving. The ground truth every engine is tested against.
bool IsValidEmbedding(const Graph& query, const Graph& data,
                      const Embedding& emb);

}  // namespace psi

#endif  // PSI_MATCH_MATCHER_HPP_
