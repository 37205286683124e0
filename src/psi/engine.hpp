// PsiEngine — the user-facing facade over the whole system: owns a set of
// prepared matchers and a rewriting list, answers decision/matching queries
// by planning and racing the portfolio, and (optionally) learns per-query
// variant preferences from race outcomes to shrink — or *stage* — future
// races (the paper's §9 direction).
//
// Typical use:
//   PsiEngine engine;
//   engine.AddMatcher(std::make_unique<GraphQlMatcher>());
//   engine.AddMatcher(std::make_unique<SPathMatcher>());
//   engine.Prepare(data);                       // builds all indexes
//   auto contains = engine.Contains(query);     // decision
//   auto count    = engine.CountEmbeddings(query);  // capped matching
//
// Every query runs through the plan pipeline (src/plan/): the QueryPlanner
// fuses feature extraction, the rule-based selector and the learned
// OnlineSelector into one QueryPlan; ExecutePortfolioPlan rewrites only
// the variants the plan races (memoized in a per-engine RewriteCache) and
// races them stage by stage.

#ifndef PSI_PSI_ENGINE_HPP_
#define PSI_PSI_ENGINE_HPP_

#include <memory>
#include <vector>

#include "core/env.hpp"
#include "core/label_stats.hpp"
#include "match/matcher.hpp"
#include "plan/plan.hpp"
#include "plan/planner.hpp"
#include "psi/portfolio.hpp"
#include "psi/racer.hpp"
#include "rewrite/rewrite.hpp"
#include "rewrite/rewrite_cache.hpp"

namespace psi {

struct PsiEngineOptions {
  /// Per-query kill cap (0 = uncapped).
  std::chrono::nanoseconds budget = std::chrono::seconds(10);
  /// Embedding cap for matching calls (paper: 1000).
  uint64_t max_embeddings = 1000;
  /// kThreads is the paper-faithful §8 setup; kPool is the deployment
  /// mode — all races share one persistent pool (see src/exec/), which is
  /// what makes many concurrent clients cheap.
  RaceMode mode = RaceMode::kThreads;
  /// Pool used when mode == kPool, and by Prepare's index builds in any
  /// mode; nullptr = Executor::Shared().
  Executor* executor = nullptr;
  /// Rewritings raced per matcher. Default: Orig + DND (the paper's most
  /// cost-effective NFV configuration, Fig 14-15).
  std::vector<Rewriting> rewritings = {Rewriting::kOriginal,
                                       Rewriting::kDnd};
  /// When > 0, race only the top `portfolio_limit` variants as ranked by
  /// the online selector (falls back to the full portfolio until enough
  /// outcomes have been observed).
  size_t portfolio_limit = 0;
  /// Learn from race outcomes (feeds the planner's online selector).
  bool learn = true;
  /// Staged racing (default: env PSI_PLAN_STAGED, off): once the
  /// selector is warm, race the predicted winner alone under
  /// `probe_fraction` of the budget and escalate to the full race only
  /// on a miss. Never changes answers — a probe miss falls through to
  /// the race that would have run anyway.
  bool staged = PlanStaged();
  /// Probe budget as a fraction of `budget` (default: env
  /// PSI_PLAN_PROBE_PCT / 100).
  double probe_fraction = static_cast<double>(PlanProbePercent()) / 100.0;
  /// Race outcomes observed before plans narrow or stage (default: env
  /// PSI_PLAN_MIN_SAMPLES).
  size_t plan_min_samples = static_cast<size_t>(PlanMinSamples());
  /// When > 1 (default: env PSI_MATCH_SPLIT), staged plans escalate a
  /// probe miss to splitting the predicted winner's root frontier across
  /// this many executor workers (EscalationPolicy::kSplit +
  /// match/parallel.hpp) instead of widening to the full race. Answers
  /// are unchanged either way — splitting is deterministic by contract.
  size_t split_workers = static_cast<size_t>(MatchSplit());
  /// CostGuard poll period forwarded into every race (default: env
  /// PSI_GUARD_PERIOD). Smaller = snappier cancellation, more clock
  /// polling.
  uint32_t guard_period = static_cast<uint32_t>(GuardPeriod());
  /// Degradation when a bounded pool (kPool + Executor queue capacity)
  /// rejects a whole race: false (default) falls back to running the race
  /// sequentially on the calling thread — the query is still answered,
  /// just without pool parallelism; true fails fast with
  /// Status::Overloaded so a serving layer can shed the request or retry
  /// on another replica.
  bool fail_fast_on_overload = false;
};

class PsiEngine {
 public:
  PsiEngine() = default;
  explicit PsiEngine(PsiEngineOptions options)
      : options_(std::move(options)) {}

  /// Registers an engine. Call before Prepare.
  void AddMatcher(std::unique_ptr<Matcher> matcher);

  /// Builds every matcher's index over `data`, the label statistics the
  /// ILF rewritings need, and the query planner over the resulting
  /// portfolio. `data` must outlive the engine. Not thread-safe; call
  /// once before serving queries.
  Status Prepare(const Graph& data);

  /// Cancellable Prepare: `stop` is polled between the heavy build steps
  /// (before the candidate index, then before and after each matcher's
  /// Prepare). A tripped token returns Status::Aborted and leaves the
  /// engine unprepared but reusable — a later Prepare call starts over
  /// cleanly. nullptr behaves exactly like the plain overload.
  Status Prepare(const Graph& data, const StopToken* stop);

  // After Prepare, the query entry points below are safe to call from any
  // number of client threads concurrently: the portfolio, indexes and
  // stats are immutable, every race keeps its state on the calling
  // thread's stack with its own cancellation group, and the only shared
  // mutable state — the planner's learning selector and the rewrite
  // cache — is internally locked.

  /// Plans and races the portfolio on `query` in decision mode (first
  /// match wins).
  ///
  /// Errors: Status::Aborted when every contender hit the kill cap;
  /// Status::Overloaded when fail_fast_on_overload is set and a bounded
  /// pool rejected the whole race (with the default fallback the query is
  /// answered sequentially on this thread instead).
  Result<bool> Contains(const Graph& query);

  /// Plans and races the portfolio in matching mode; returns the
  /// embedding count (capped at options.max_embeddings). Same error
  /// contract as Contains().
  Result<uint64_t> CountEmbeddings(const Graph& query);

  /// Full-control entry point; exposes the complete race outcome.
  /// RaceResult::workers is in full-portfolio order (plan stages map
  /// their outcomes back), winner is a full-portfolio index, and
  /// rejected_variants counts pool displacements across all executed
  /// stages.
  RaceResult Run(const Graph& query, uint64_t max_embeddings);

  /// The plan Run would execute for `query` right now (selector state
  /// included) without racing anything — psi_cli --explain, debugging.
  QueryPlan ExplainPlan(const Graph& query) const;

  const Portfolio& portfolio() const { return portfolio_; }
  const LabelStats& stats() const { return stats_; }
  const QueryPlanner& planner() const { return planner_; }
  size_t observed_races() const { return planner_.sample_count(); }
  /// Hit, miss and eviction counters of the per-engine rewrite
  /// memoization.
  RewriteCache::Stats rewrite_cache_stats() const {
    return rewrite_cache_.stats();
  }

  /// The pool backing kPool races: the configured executor, or the
  /// process-wide Executor::Shared() (instantiating it on first use).
  Executor& executor() const;
  /// Snapshot of that pool's gauges — the serving-side observability
  /// hook; stress tests and benches read it next to the FTV filter's
  /// FilterStageStats. The matchers' MatchKernelStats (candidate-index
  /// effort counters) are folded into the snapshot's kernel_* fields.
  PoolGauges pool_gauges() const;

  /// The candidate index shared by every prepared matcher, or nullptr
  /// when the matching kernel is disabled (PSI_MATCH_INDEX=0).
  const CandidateIndex* candidate_index() const {
    return candidate_index_.get();
  }

 private:
  RaceOptions BaseRaceOptions(uint64_t max_embeddings) const;

  PsiEngineOptions options_;
  std::vector<std::unique_ptr<Matcher>> matchers_;
  const Graph* data_ = nullptr;
  LabelStats stats_;
  Portfolio portfolio_;  // the full portfolio
  QueryPlanner planner_;
  RewriteCache rewrite_cache_;
  /// One candidate index over `data_`, shared by all matchers — built in
  /// Prepare, immutable afterwards (match/candidate_index.hpp).
  std::shared_ptr<const CandidateIndex> candidate_index_;
};

}  // namespace psi

#endif  // PSI_PSI_ENGINE_HPP_
