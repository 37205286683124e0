// QueryPlanner — one policy object fusing the three variant-selection
// mechanisms that used to be smeared across the engine and selectors:
//
//   * ExtractFeatures (select/selector.hpp)    — cheap per-query features,
//   * the rule-based selector (SelectRewriting / SelectAlgorithm)
//                                              — cold-start variant order,
//   * OnlineSelector::Rank                     — learned order, once warm.
//
// Given a query it emits a QueryPlan (plan/plan.hpp): cold, a single full
// race in rule-preferred order; warm, optionally narrowed to the top
// `portfolio_limit` variants and/or *staged* — the predicted winner first
// under a probe budget (`probe_fraction` of the full budget), escalating
// to the full race on a miss. This is the paper's §9 "predict which
// version to employ per query" done as a serving-path optimization: the
// prediction saves variant-runs when right and costs one short probe when
// wrong, never a wrong answer.
//
// Thread-safe: Plan() and Observe() may be called concurrently from any
// number of threads (the learning selector is the only mutable state,
// guarded by an internal mutex). Configure() must not race with them.

#ifndef PSI_PLAN_PLANNER_HPP_
#define PSI_PLAN_PLANNER_HPP_

#include <chrono>
#include <cstddef>
#include <mutex>
#include <vector>

#include "core/label_stats.hpp"
#include "plan/plan.hpp"
#include "psi/portfolio.hpp"
#include "select/online_selector.hpp"
#include "select/selector.hpp"

namespace psi {

struct QueryPlannerOptions {
  /// Full-race kill budget (0 = uncapped; staging needs a positive
  /// budget to derive the probe cap from, so 0 disables staging).
  std::chrono::nanoseconds budget{0};
  /// Emit probe-then-escalate plans once the selector is warm.
  bool staged = false;
  /// Probe budget as a fraction of `budget`, clamped to (0, 1].
  double probe_fraction = 0.1;
  /// Variants raced in the probe stage (typically 1).
  size_t probe_variants = 1;
  /// When > 0 and warm, the full stage races only the top
  /// `portfolio_limit` ranked variants (the legacy engine narrowing).
  size_t portfolio_limit = 0;
  /// Observed race outcomes before ranking counts as warm; below this,
  /// plans are single-stage full races in rule-preferred order.
  size_t min_samples = 8;
  /// When > 1, a staged plan escalates a probe miss to "split the
  /// predicted winner across root-range workers"
  /// (EscalationPolicy::kSplit + match/parallel.hpp) instead of widening
  /// to the full race — intra-query parallelism as the straggler answer.
  /// The split step runs at this width. Requires `staged`; 0 / 1 keeps
  /// the classic full-race escalation.
  size_t split_workers = 0;

  /// Plan knobs from the environment: PSI_PLAN_STAGED,
  /// PSI_PLAN_PROBE_PCT, PSI_PLAN_MIN_SAMPLES, PSI_MATCH_SPLIT
  /// (split_workers; budget and portfolio_limit stay caller-owned).
  static QueryPlannerOptions FromEnv();
};

class QueryPlanner {
 public:
  QueryPlanner() = default;

  /// Binds the planner to a variant universe. `portfolio` and `stats`
  /// must outlive the planner and stay immutable while it serves; the
  /// learned history is reset. Entries may have a null matcher (e.g. the
  /// FTV rewriting-only universe) — rule-based ordering then scores
  /// rewritings alone.
  void Configure(const Portfolio* portfolio, const LabelStats* stats,
                 const QueryPlannerOptions& options);
  bool configured() const { return portfolio_ != nullptr; }

  /// Plans `query`: extracts features and delegates to Plan(features).
  QueryPlan Plan(const Graph& query) const;
  /// Plans from precomputed features (they are copied into the plan so
  /// the caller can learn from the race outcome without re-extracting).
  QueryPlan Plan(const QueryFeatures& features) const;

  /// Records a race outcome: universe variant `winner_variant` won for a
  /// query with these features. Feed it full-universe indices (PlanResult
  /// winners already are).
  void Observe(const QueryFeatures& features, size_t winner_variant);

  size_t sample_count() const;
  const QueryPlannerOptions& options() const { return options_; }

 private:
  /// Cold-start order: entries agreeing with the rule-based selector's
  /// preferred (algorithm, rewriting) first, original order otherwise.
  std::vector<size_t> RuleBasedOrder(const QueryFeatures& f) const;

  const Portfolio* portfolio_ = nullptr;
  const LabelStats* stats_ = nullptr;
  QueryPlannerOptions options_;
  mutable std::mutex mutex_;
  OnlineSelector selector_;  // guarded by mutex_
};

}  // namespace psi

#endif  // PSI_PLAN_PLANNER_HPP_
