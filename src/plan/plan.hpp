// Query plans — the explicit decide-then-race layer of the Ψ framework.
//
// The paper's framework is "decide which (algorithm, rewriting) variants
// to race, then race them". A QueryPlan is that decision made explicit: an
// ordered list of race stages, each naming the variants it races (as
// indices into a *variant universe* — a Portfolio's entries, or the
// rewriting instances of an FTV verification) with per-variant budgets,
// plus the escalation policy between stages. Plans are produced by
// QueryPlanner (plan/planner.hpp) and executed here.
//
// The one plan shape beyond the classic full race is *staged racing*: a
// first stage races only the predicted winner(s) under a small probe
// budget; on a miss (no variant completed within the probe budget) the
// plan escalates to the full race. Staging never changes answers — every
// completed variant of a race is a correct answer by construction
// (isomorphic rewritings preserve embeddings up to the cap), and a probe
// miss falls through to exactly the race that would have run anyway; the
// differential harness in tests/plan_test.cpp holds this across seeds.

#ifndef PSI_PLAN_PLAN_HPP_
#define PSI_PLAN_PLAN_HPP_

#include <chrono>
#include <span>
#include <string>
#include <vector>

#include "psi/portfolio.hpp"
#include "psi/racer.hpp"
#include "rewrite/rewrite_cache.hpp"
#include "select/selector.hpp"

namespace psi {

/// One raced variant of a plan stage.
struct PlanStep {
  /// Index into the plan's variant universe.
  size_t variant = 0;
  /// Per-variant kill budget; zero inherits the stage budget.
  std::chrono::nanoseconds budget{0};
  /// Split-enumeration width for this step: > 1 runs the variant through
  /// its run_split hook (match/parallel.hpp) with that many root-range
  /// workers; 0 / 1 runs it serially. Splitting never changes answers,
  /// only wall-clock (MatchParallel's determinism contract).
  uint32_t split = 1;
};

/// One race: all steps run concurrently, first completion wins.
struct PlanStage {
  std::vector<PlanStep> steps;
  /// Stage race budget; zero inherits the caller's RaceOptions::budget.
  std::chrono::nanoseconds budget{0};
};

/// What happens when a stage produces no winner (all contenders killed at
/// the stage budget).
enum class EscalationPolicy : uint8_t {
  /// The stage's outcome is final (classic single-race behaviour).
  kNone,
  /// Run the next stage; the last stage's outcome is final. The staged
  /// probe-then-full-race pipeline.
  kOnMiss,
  /// Same escalation mechanics as kOnMiss, but the follow-up stage throws
  /// the pool at the predicted winner (PlanStep::split > 1) instead of
  /// widening the race — "split the winner across k workers" as the
  /// alternative answer to a probe miss. Distinct from kOnMiss only so
  /// plans/metrics can tell the two strategies apart; ExecutePlan treats
  /// both as "run the next stage on a miss".
  kSplit,
};

struct QueryPlan {
  std::string name;
  std::vector<PlanStage> stages;
  EscalationPolicy escalation = EscalationPolicy::kOnMiss;
  /// Extracted once at planning time; callers reuse them for learning
  /// (QueryPlanner::Observe) instead of re-walking the query.
  QueryFeatures features;
  /// True when the online selector's history backed this plan (staging
  /// and narrowing only engage warm).
  bool warm = false;

  size_t num_stages() const { return stages.size(); }
  /// Variants raced in the (single or escalated-to) final stage.
  size_t final_stage_size() const {
    return stages.empty() ? 0 : stages.back().steps.size();
  }
};

/// The classic Ψ race as a plan: one stage, all `num_variants` variants in
/// universe order, the caller's budget. RunPortfolio executes through this.
QueryPlan FullRacePlan(size_t num_variants,
                       std::chrono::nanoseconds budget = {});

/// The probe stage of a staged plan: the first `probes` (at least one)
/// variants of `order`, raced under `probe_fraction` (clamped to
/// [0.01, 1]) of `budget`. QueryPlanner's warm staged plans and the FTV
/// runners' default pair plan (workload/runner.hpp) both open with it.
PlanStage ProbeStage(std::span<const size_t> order, size_t probes,
                     double probe_fraction, std::chrono::nanoseconds budget);

/// True when a race variant's body actually started (it completed, or it
/// was interrupted after making progress); fast-cancelled / shed /
/// rejected variants report cancelled with zero elapsed time. Drives
/// PlanResult::variant_runs and the engine's overload-vs-aborted
/// classification — one definition for both.
bool VariantStarted(const MatchResult& result);

/// Outcome of executing a plan.
struct PlanResult {
  /// Combined race outcome. `workers` is in *universe* order (one slot
  /// per universe variant, unraced slots carry a default cancelled-less
  /// never-run result), `winner` is a universe index, and `wall` is the
  /// total across executed stages — the latency the client observed,
  /// probe included.
  RaceResult race;
  size_t stages_run = 0;
  /// Variants whose body actually started across all stages (excludes
  /// fast-cancelled / shed / rejected ones) — the work-saved metric
  /// bench_plan_staged reports as variant-runs/query.
  size_t variant_runs = 0;
  bool escalated = false;
};

/// Executes `plan` over a prebuilt variant universe. Stage k races the
/// universe entries its steps name, under the stage budget (fallback:
/// `base.budget`) and per-step budgets; on a miss, EscalationPolicy
/// decides whether stage k+1 runs. `base` supplies mode / executor /
/// guard_period / max_embeddings; its `variant_budgets` is ignored (plans
/// carry their own).
PlanResult ExecutePlan(const QueryPlan& plan,
                       std::span<const RaceVariant> universe,
                       const RaceOptions& base);

/// Executes a plan whose universe is `portfolio.entries`: rewrites the
/// query only for the entries the plan actually races (through `cache`
/// when given — the serving path's memoization), builds the race variants,
/// and delegates to ExecutePlan. Every entry must have a matcher.
PlanResult ExecutePortfolioPlan(const QueryPlan& plan,
                                const Portfolio& portfolio,
                                const Graph& query, const LabelStats& stats,
                                const RaceOptions& base,
                                RewriteCache* cache = nullptr);

/// Human-readable plan rendering for logs and psi_cli --explain, e.g.
///   stage 0 [probe @25ms]: GQL-ILF
///   stage 1 [full @250ms]: GQL-ILF / GQL-Orig / SPA-DND
/// `names[i]` labels universe variant i.
std::string FormatPlan(const QueryPlan& plan,
                       std::span<const std::string> names);
/// Convenience over a portfolio universe (EntryName per entry).
std::string FormatPlan(const QueryPlan& plan, const Portfolio& portfolio);

}  // namespace psi

#endif  // PSI_PLAN_PLAN_HPP_
