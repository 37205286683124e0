// Workload execution harness implementing the paper's experimental
// protocol (§3.2-§3.5): every sub-iso test runs under a kill cap (the
// scaled stand-in for the 10-minute limit); killed tests are recorded at
// the cap and classified "hard". The FTV runner measures each individual
// (query, stored-graph) verification separately (§4: "we execute each
// individual query against a single stored graph at a time"), excluding
// the filtering time, which the paper found to be trivial overhead.

#ifndef PSI_WORKLOAD_RUNNER_HPP_
#define PSI_WORKLOAD_RUNNER_HPP_

#include <cstdint>
#include <span>
#include <vector>

#include "core/status.hpp"
#include "core/stop_token.hpp"
#include "exec/executor.hpp"
#include "gen/query_gen.hpp"
#include "ggsx/ggsx.hpp"
#include "grapes/grapes.hpp"
#include "match/matcher.hpp"
#include "metrics/metrics.hpp"
#include "plan/plan.hpp"
#include "plan/planner.hpp"
#include "psi/portfolio.hpp"
#include "rewrite/rewrite_cache.hpp"

namespace psi {

/// Outcome of one capped sub-iso test.
struct QueryRecord {
  double ms = 0.0;        ///< measured time; killed tests carry the cap
  bool killed = false;    ///< terminated at the cap ("hard")
  bool matched = false;   ///< at least one embedding found
  uint64_t embeddings = 0;
  /// *Why* the record looks the way it does — kOk for an answered query;
  /// otherwise the typed failure: kAborted (killed at the cap),
  /// kOverloaded (pool admission refused the race and nothing ran),
  /// kDeadlineExceeded (the watchdog tore the race down). Displaced and
  /// inline re-runs propagate their final status here too — a non-OK
  /// outcome is never silently dropped from the workload record.
  Status::Code status = Status::Code::kOk;
};

struct RunnerOptions {
  /// Per-test budget in milliseconds (<= 0: uncapped).
  double cap_ms = 250.0;
  /// Embedding cap (paper: 1000 for NFV matching, 1 for FTV decision).
  uint64_t max_embeddings = 1000;
};

/// Runs one query against a prepared NFV matcher.
QueryRecord RunOne(const Matcher& matcher, const Graph& query,
                   const RunnerOptions& options);

/// Runs a whole workload; one record per query.
std::vector<QueryRecord> RunWorkload(const Matcher& matcher,
                                     std::span<const gen::Query> workload,
                                     const RunnerOptions& options);

/// Runs one query through the Ψ plan pipeline; the record reflects the
/// race outcome (killed only when *every* contender of the final stage
/// was killed). `executor` backs kPool races (nullptr = the shared
/// pool). With `planner` (configured over this same `portfolio`), the
/// query executes the planner's plan — staged/narrowed once warm — and
/// the race outcome feeds the planner's learning selector; without one
/// it runs the classic full race. `rewrite_cache` memoizes the
/// rewritings across calls (nullptr = rewrite fresh).
QueryRecord RunOnePsi(const Portfolio& portfolio, const Graph& query,
                      const LabelStats& stats, const RunnerOptions& options,
                      RaceMode mode, Executor* executor = nullptr,
                      QueryPlanner* planner = nullptr,
                      RewriteCache* rewrite_cache = nullptr);
std::vector<QueryRecord> RunWorkloadPsi(const Portfolio& portfolio,
                                        std::span<const gen::Query> workload,
                                        const LabelStats& stats,
                                        const RunnerOptions& options,
                                        RaceMode mode,
                                        Executor* executor = nullptr,
                                        QueryPlanner* planner = nullptr,
                                        RewriteCache* rewrite_cache = nullptr);

/// RunWorkloadPsi with queries spread over the calling thread and at
/// most pool-width helper tasks on `executor` (nullptr = the shared
/// pool), which take queries from one cursor (DrainIndices,
/// exec/executor.hpp). With mode == kPool each query's race shares the
/// same pool. Records land in workload order, and each record still
/// measures its own race. A helper the bounded pool rejects or sheds
/// leaves its queries to the caller, so every record is present under
/// any queue capacity, including capacity 0. A one-query call spawns no
/// helper.
/// Caveat: a race's budget runs from the moment its query starts, and on
/// a saturated pool its variants contend with other queries for workers
/// — so queries near the cap can be recorded killed here that the serial
/// runner completes. That is inherent to capped racing under load
/// (oversubscribed kThreads behaves the same way); give the cap headroom
/// when comparing against serial records.
///
/// Thread-safety: safe to call from several threads at once when they
/// use distinct record vectors (they always do — each call owns its
/// output); the shared Executor, the QueryPlanner and the RewriteCache
/// are themselves thread-safe.
std::vector<QueryRecord> RunWorkloadPsiParallel(
    const Portfolio& portfolio, std::span<const gen::Query> workload,
    const LabelStats& stats, const RunnerOptions& options, RaceMode mode,
    Executor* executor = nullptr, QueryPlanner* planner = nullptr,
    RewriteCache* rewrite_cache = nullptr);

/// One (query, stored graph) verification data point of the FTV protocol.
struct FtvPairRecord {
  uint32_t query_index = 0;
  uint32_t graph_id = 0;
  double ms = 0.0;
  bool killed = false;
  bool matched = false;
  /// Same contract as QueryRecord::status.
  Status::Code status = Status::Code::kOk;
};

/// Grapes: filter (untimed), then verify each candidate under the cap.
std::vector<FtvPairRecord> RunFtvWorkload(
    const GrapesIndex& index, std::span<const gen::Query> workload,
    const RunnerOptions& options);

/// GGSX: ditto, against whole candidate graphs.
std::vector<FtvPairRecord> RunFtvWorkload(
    const GgsxIndex& index, std::span<const gen::Query> workload,
    const RunnerOptions& options);

/// A variant universe for FTV verification plans: one matcher-less entry
/// per rewriting, in order. Configure a QueryPlanner over it (plus the
/// dataset's LabelStats) to stage/narrow the per-pair verification races
/// of the FTV runners below.
Portfolio MakeFtvVerificationPortfolio(std::span<const Rewriting> rewritings);

/// The plan of an FTV verification pair whose query no planner plans. A
/// kPool pair with a cap and at least two rewritings probes the first
/// rewriting alone under PSI_PLAN_PROBE_PCT of the cap (the probe stage
/// QueryPlanner's staged plans use) and races every rewriting only when
/// the probe misses: a race pays for its pool tasks only against a
/// straggling first rewriting. Every other pair (kThreads, kSequential,
/// uncapped, one rewriting) races every rewriting at once.
QueryPlan FtvPairPlan(size_t num_rewritings, const RunnerOptions& options,
                      RaceMode mode);

/// Ψ-framework over Grapes verification (paper §8, FTV side): per query,
/// filters with GrapesIndex::Filter (counted in the index's
/// filter_stats()), then verifies each candidate graph, in ascending graph
/// id, with one VF2 contender per rewriting. Each pair runs
/// FtvPairPlan(rewritings.size(), options, mode), or with `planner`
/// (configured over MakeFtvVerificationPortfolio(rewritings)) the query's
/// plan, whose completed races the planner learns from. Every query is
/// rewritten exactly once: the pairs fetch their instances from
/// `rewrite_cache` (nullptr = a cache local to this call), so a query
/// surviving against N candidate graphs costs one rewrite, not N.
std::vector<FtvPairRecord> RunFtvWorkloadPsi(
    const GrapesIndex& index, std::span<const gen::Query> workload,
    std::span<const Rewriting> rewritings, const LabelStats& stats,
    const RunnerOptions& options, RaceMode mode,
    Executor* executor = nullptr, QueryPlanner* planner = nullptr,
    RewriteCache* rewrite_cache = nullptr);

/// RunFtvWorkloadPsi with whole queries spread over the calling thread
/// and at most pool-width helper tasks on `executor` (nullptr = the
/// shared pool), which take queries from one cursor (DrainIndices,
/// exec/executor.hpp, the fan-out index builds use too). Each query runs
/// RunFtvWorkloadPsi's body on the thread that took it: the serial filter,
/// then its pairs; a pair's escalated pool race shares the same pool. A
/// helper the bounded pool rejects or sheds leaves its queries to the
/// caller, so the records equal the serial runner's, in its order (queries
/// in workload order, candidates gid-ascending), under any queue capacity,
/// including capacity 0. A one-query call spawns no helper.
std::vector<FtvPairRecord> RunFtvWorkloadPsiParallel(
    const GrapesIndex& index, std::span<const gen::Query> workload,
    std::span<const Rewriting> rewritings, const LabelStats& stats,
    const RunnerOptions& options, RaceMode mode,
    Executor* executor = nullptr, QueryPlanner* planner = nullptr,
    RewriteCache* rewrite_cache = nullptr);

/// Convenience: extract the times / kill flags of a record series.
std::vector<double> TimesOf(std::span<const QueryRecord> records);
std::vector<uint8_t> KilledOf(std::span<const QueryRecord> records);
std::vector<double> TimesOf(std::span<const FtvPairRecord> records);
std::vector<uint8_t> KilledOf(std::span<const FtvPairRecord> records);

}  // namespace psi

#endif  // PSI_WORKLOAD_RUNNER_HPP_
