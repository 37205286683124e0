// Performance metrics of paper §3.5.
//
// Two aggregation views of a ratio between measurement sets A (base) and
// B (alternative):
//   * WLA (workload-level): avg(A) / avg(B) — the system view, dominated
//     by stragglers;
//   * QLA (query-level):    avg_i(A_i / B_i) — the per-user view.
// speedup* uses the base method's time over the best alternative (killed
// queries enter at the cap, making all reported speedups lower bounds,
// exactly as the paper notes). (max/min) measures the spread across
// isomorphic instances of one query.

#ifndef PSI_METRICS_METRICS_HPP_
#define PSI_METRICS_METRICS_HPP_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace psi {

/// Distribution summary used by the paper's statistics tables (5-9).
struct SummaryStats {
  double mean = 0.0;
  double std_dev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  size_t count = 0;
};
SummaryStats Summarize(std::span<const double> values);

/// The `p`-th percentile of `values` (p in [0, 100]) by linear
/// interpolation between closest ranks; 0 when `values` is empty. Feeds
/// the per-query latency percentiles (p50/p95/p99) the bench harnesses
/// record next to the workload means.
double Percentile(std::span<const double> values, double p);

/// avg(base) / avg(alt); 0 when either set is empty or avg(alt) == 0.
double WlaRatio(std::span<const double> base, std::span<const double> alt);

/// avg_i(base[i] / alt[i]); spans must be equal length.
double QlaRatio(std::span<const double> base, std::span<const double> alt);

/// Per-query ratios base[i]/alt[i] (the inputs to QLA summaries).
std::vector<double> PerQueryRatios(std::span<const double> base,
                                   std::span<const double> alt);

/// Per-query (max/min) over isomorphic-instance times: for each row of
/// `per_query_instance_times`, max(times)/min(times).
std::vector<double> MaxMinRatios(
    std::span<const std::vector<double>> per_query_instance_times);

/// Per-query best-alternative time: element-wise min across columns.
std::vector<double> BestOf(
    std::span<const std::vector<double>> per_query_alternative_times);

/// The paper's query-time buckets: easy (< 2"), 2"-600", hard/killed (cap).
enum class Bucket { kEasy, kMid, kHard };
std::string_view ToString(Bucket b);

struct BucketThresholds {
  /// The scaled stand-ins for 2 s and 600 s.
  double easy_ms = 0.0;
  double cap_ms = 0.0;
  /// Paper protocol: easy threshold = cap / 300 (2 s vs 600 s).
  static BucketThresholds FromCap(double cap_ms) {
    return {cap_ms / 300.0, cap_ms};
  }
};

/// `killed` marks queries terminated at the cap regardless of their
/// recorded time.
Bucket Classify(double ms, bool killed, const BucketThresholds& t);

/// Snapshot of the persistent executor pool (src/exec/), surfaced by the
/// bench harnesses next to the workload tables. `tasks_executed` counts
/// every task a thread dequeued and ran; `tasks_discarded` is the subset whose group
/// was cancelled before the task started, so only the envelope ran (the
/// fast-cancel path that makes pool racing cheap: losing variants that
/// never left the queue cost almost nothing).
///
/// Admission accounting (bounded queues, see exec/executor.hpp): every
/// Spawn/Submit increments `tasks_submitted` and ends up in exactly one
/// of `tasks_executed` (dequeued and ran, fast-cancel discards included),
/// `tasks_shed` (evicted from a full queue to admit more-urgent work;
/// completed through its group as cancelled) or `tasks_rejected` (refused
/// at admission; the closure never ran) — modulo tasks still queued or in
/// flight at snapshot time.
///
/// Thread-safety: a PoolGauges value is a plain snapshot; Executor::gauges()
/// may be called from any thread.
struct PoolGauges {
  size_t num_threads = 0;
  size_t queue_depth = 0;       ///< tasks currently waiting
  size_t peak_queue_depth = 0;  ///< high-water mark since construction
  /// Threads currently inside a pool task — workers plus helping
  /// waiters, so transiently up to num_threads + concurrent waiters.
  size_t busy_workers = 0;
  uint64_t tasks_submitted = 0;
  uint64_t tasks_executed = 0;
  uint64_t tasks_discarded = 0;
  uint64_t tasks_rejected = 0;  ///< refused at admission (queue full)
  uint64_t tasks_shed = 0;      ///< evicted from a full queue pre-start

  /// Queue-wait histogram over every dequeued task (executed + discarded):
  /// time from enqueue to dequeue, bucketed by upper bound in
  /// `kWaitBucketUpperMs` (last bucket is unbounded).
  static constexpr size_t kWaitBuckets = 6;
  /// Upper bounds (exclusive) of the first kWaitBuckets-1 buckets, in ms.
  static const double kWaitBucketUpperMs[kWaitBuckets - 1];
  /// Bucket index a wait of `ms` falls into.
  static size_t WaitBucketFor(double ms);
  uint64_t queue_wait_hist[kWaitBuckets] = {};
  uint64_t queue_wait_count = 0;     ///< dequeued tasks measured
  double queue_wait_total_ms = 0.0;  ///< summed wait time

  // ---- FTV filter-stage counters (src/ftv/filter_shards.hpp) ----
  //
  // Zero unless an FTV index contributed its FilterStageStats into this
  // snapshot (FilterStageStats::AddTo). Every GrapesIndex/GgsxIndex
  // Filter call counts once.
  uint64_t filter_queries = 0;            ///< Filter calls
  uint64_t filter_candidates_in = 0;      ///< stored graphs considered
  uint64_t filter_candidates_pruned = 0;  ///< graphs the filter dropped

  // ---- Match-kernel counters (match/candidate_index.hpp) ----
  //
  // Zero unless a MatchKernelStats instance contributed its counters into
  // this snapshot (MatchKernelStats::AddTo; PsiEngine::pool_gauges folds
  // its matchers' in). `kernel_matches` counts finished Match() calls;
  // `kernel_indexed_matches` the subset that ran with the candidate index
  // active. The remaining counters aggregate the per-call MatchStats.
  uint64_t kernel_matches = 0;
  uint64_t kernel_indexed_matches = 0;
  uint64_t kernel_candidates_tried = 0;
  uint64_t kernel_nlf_rejects = 0;       ///< O(1) NLF prefilter drops
  uint64_t kernel_bitset_checks = 0;     ///< edge checks hub bitsets answered
  uint64_t kernel_slice_candidates = 0;  ///< candidates drawn from label
                                         ///< slices (sum of slice sizes)
  // Multiway (WCOJ) extension gauges (match/intersect.hpp).
  uint64_t kernel_multiway_intersections = 0;  ///< WCOJ extensions performed
  /// Always 0: the intersection kernel is scalar only. The field stays
  /// because psibench reads it (`match.simd_frac`).
  uint64_t kernel_simd_galloped = 0;
  uint64_t kernel_intersection_shortcuts = 0;  ///< extensions refuted early
                                               ///< (empty input or partial)
  // Intra-query split-enumeration gauges (match/parallel.hpp).
  uint64_t kernel_split_matches = 0;  ///< Match() calls that actually split
  uint64_t kernel_split_tasks = 0;    ///< range tasks run on the pool
  uint64_t kernel_split_tasks_inline = 0;  ///< displaced ranges, run inline
  uint64_t kernel_split_budget_stops = 0;  ///< shared-budget fast-cancels
  /// Always 0: work stealing below the root split was removed. The field
  /// stays because psibench reads it (`match.stolen_per_req`).
  uint64_t kernel_steal_stolen = 0;

  // ---- Fault / degradation counters (fault/failpoint.hpp) ----
  //
  // Zero unless fault machinery engaged. `fault_injected` counts fired
  // failpoints (FaultStats); the rest count the degradation ladder's
  // responses: variants whose body threw and were absorbed as killed,
  // backoff retries of overloaded races, and watchdog teardowns.
  uint64_t fault_injected = 0;
  uint64_t fault_variant_crashes = 0;
  uint64_t fault_retries = 0;
  uint64_t fault_watchdog_fires = 0;

  /// Fraction of pool threads currently busy, in [0, 1].
  double utilization() const;
  /// Fraction of executed tasks that were fast-cancelled, in [0, 1].
  double discard_rate() const;
  /// Mean queue wait in ms (0 when nothing was dequeued yet).
  double mean_queue_wait_ms() const;
  /// Fraction of considered stored graphs the filter pruned, in [0, 1].
  double filter_prune_rate() const;
};

/// One-line human-readable rendering for bench output.
std::string FormatPoolGauges(const PoolGauges& g);

/// Multi-line rendering of the queue-wait histogram ("  <1ms  123" rows).
std::string FormatQueueWaitHistogram(const PoolGauges& g);

/// One-line rendering of the filter-stage counters ("filter[...]"); empty
/// string when no filter call contributed to the snapshot.
std::string FormatFilterGauges(const PoolGauges& g);

/// One-line rendering of the match-kernel counters ("kernel[...]"); empty
/// string when no MatchKernelStats contributed to the snapshot.
std::string FormatKernelGauges(const PoolGauges& g);

/// One-line rendering of the fault/degradation counters ("fault[...]");
/// empty string when no faults fired and no degradation path engaged.
std::string FormatFaultGauges(const PoolGauges& g);

/// Aggregate of one workload's bucket structure (rows of Fig 1/2, Tab 3/4).
struct BucketBreakdown {
  size_t easy_count = 0, mid_count = 0, hard_count = 0;
  double easy_avg_ms = 0.0;     ///< AET of easy queries
  double mid_avg_ms = 0.0;      ///< AET of 2"-600" queries
  double completed_avg_ms = 0.0;  ///< AET over easy+mid (completed)
  double PercentEasy() const;
  double PercentMid() const;
  double PercentHard() const;
  size_t total() const { return easy_count + mid_count + hard_count; }
};
BucketBreakdown BreakdownWorkload(std::span<const double> times_ms,
                                  std::span<const uint8_t> killed,
                                  const BucketThresholds& t);

}  // namespace psi

#endif  // PSI_METRICS_METRICS_HPP_
