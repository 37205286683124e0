#include "plan/plan.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "fault/failpoint.hpp"
#include "match/parallel.hpp"

namespace psi {

bool VariantStarted(const MatchResult& result) {
  return result.complete || result.elapsed.count() > 0;
}

namespace {

std::string MillisOf(std::chrono::nanoseconds ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g",
                std::chrono::duration<double, std::milli>(ns).count());
  return buf;
}

}  // namespace

QueryPlan FullRacePlan(size_t num_variants, std::chrono::nanoseconds budget) {
  QueryPlan plan;
  plan.name = "full";
  plan.escalation = EscalationPolicy::kNone;
  PlanStage stage;
  stage.budget = budget;
  stage.steps.reserve(num_variants);
  for (size_t i = 0; i < num_variants; ++i) {
    stage.steps.push_back(PlanStep{i, {}});
  }
  plan.stages.push_back(std::move(stage));
  return plan;
}

PlanStage ProbeStage(std::span<const size_t> order, size_t probes,
                     double probe_fraction, std::chrono::nanoseconds budget) {
  const double fraction = std::clamp(probe_fraction, 1.0 / 100.0, 1.0);
  PlanStage probe;
  probe.budget = std::chrono::nanoseconds(std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(budget.count()) *
                              fraction)));
  for (size_t i = 0; i < std::max<size_t>(1, probes) && i < order.size();
       ++i) {
    probe.steps.push_back(PlanStep{order[i], {}});
  }
  return probe;
}

PlanResult ExecutePlan(const QueryPlan& plan,
                       std::span<const RaceVariant> universe,
                       const RaceOptions& base) {
  PlanResult out;
  out.race.mode = base.mode;
  out.race.workers.resize(universe.size());
  for (size_t i = 0; i < universe.size(); ++i) {
    out.race.workers[i].name = universe[i].name;
  }

  for (size_t si = 0; si < plan.stages.size(); ++si) {
    const PlanStage& stage = plan.stages[si];
    if (stage.steps.empty()) continue;

    // Failpoint: the probe stage misses outright — skipped without racing,
    // as if every contender had been killed at the stage budget. Only
    // non-final stages are skippable (there is an escalation to absorb the
    // miss); the plan then answers from a later stage, slower but right.
    if (si + 1 < plan.stages.size() &&
        plan.escalation != EscalationPolicy::kNone &&
        PSI_FAULT_POINT("plan.probe") == FaultKind::kError) {
      ++out.stages_run;
      out.escalated = true;
      continue;
    }

    std::vector<RaceVariant> contenders;
    contenders.reserve(stage.steps.size());
    RaceOptions ro = base;
    ro.budget = stage.budget.count() > 0 ? stage.budget : base.budget;
    ro.variant_budgets.assign(stage.steps.size(),
                              std::chrono::nanoseconds(0));
    ro.variant_splits.assign(stage.steps.size(), 1);
    bool any_step_budget = false;
    bool any_step_split = false;
    for (const PlanStep& step : stage.steps) {
      if (step.variant >= universe.size()) continue;
      contenders.push_back(universe[step.variant]);
      if (step.budget.count() > 0) {
        // Indexed by contender position, not step position — skipped
        // out-of-range steps must not shift budgets onto the wrong
        // contender.
        ro.variant_budgets[contenders.size() - 1] = step.budget;
        any_step_budget = true;
      }
      if (step.split > 1) {
        ro.variant_splits[contenders.size() - 1] = step.split;
        any_step_split = true;
      }
    }
    if (!any_step_budget) ro.variant_budgets.clear();
    if (!any_step_split) ro.variant_splits.clear();
    if (contenders.empty()) continue;

    const RaceResult r = Race(contenders, ro);
    ++out.stages_run;
    out.race.mode = r.mode;
    out.race.wall += r.wall;
    out.race.rejected_variants += r.rejected_variants;
    out.race.variant_crashes += r.variant_crashes;
    out.race.watchdog_fired |= r.watchdog_fired;

    // Map stage outcomes back to universe slots. A variant raced in
    // several stages keeps its most recent outcome (the one the final
    // answer came from).
    size_t k = 0;
    for (const PlanStep& step : stage.steps) {
      if (step.variant >= universe.size()) continue;
      const WorkerOutcome& w = r.workers[k];
      out.race.workers[step.variant].result = w.result;
      if (VariantStarted(w.result)) ++out.variant_runs;
      if (r.winner == static_cast<int>(k)) {
        out.race.winner = static_cast<int>(step.variant);
        out.race.result = w.result;
      }
      ++k;
    }

    if (out.race.completed()) break;
    if (plan.escalation == EscalationPolicy::kNone) break;
    if (si + 1 < plan.stages.size()) out.escalated = true;
  }
  return out;
}

PlanResult ExecutePortfolioPlan(const QueryPlan& plan,
                                const Portfolio& portfolio,
                                const Graph& query, const LabelStats& stats,
                                const RaceOptions& base, RewriteCache* cache) {
  const size_t n = portfolio.entries.size();
  // Variants referenced anywhere in the plan; only those are rewritten.
  std::vector<uint8_t> referenced(n, 0);
  for (const PlanStage& stage : plan.stages) {
    for (const PlanStep& step : stage.steps) {
      if (step.variant < n) referenced[step.variant] = 1;
    }
  }

  // Rewritten queries must outlive the races; owned here (shared with the
  // cache when one is given — cached entries also survive this frame).
  std::vector<std::shared_ptr<const RewrittenQuery>> rewritten(n);
  std::vector<RaceVariant> universe(n);
  for (size_t i = 0; i < n; ++i) {
    const PortfolioEntry& e = portfolio.entries[i];
    universe[i].name = EntryName(e);
    if (referenced[i] == 0) continue;
    if (cache != nullptr) {
      rewritten[i] = cache->Get(query, e.rewriting, stats, e.random_seed);
    } else {
      auto rq = RewriteQuery(query, e.rewriting, stats, e.random_seed);
      if (rq.ok()) {
        rewritten[i] =
            std::make_shared<const RewrittenQuery>(std::move(rq).value());
      } else {
        // Rewriting a valid query cannot fail; race the original instead
        // (same defensive posture as the legacy RunPortfolio).
        auto fallback = std::make_shared<RewrittenQuery>();
        fallback->graph = query;
        fallback->rewriting = Rewriting::kOriginal;
        rewritten[i] = std::move(fallback);
      }
    }
    universe[i].run = [matcher = e.matcher,
                       rq = rewritten[i]](const MatchOptions& mo) {
      return matcher->Match(rq->graph, mo);
    };
    // Split entry point for EscalationPolicy::kSplit stages: same search,
    // root frontier fanned across the race's own pool.
    universe[i].run_split = [matcher = e.matcher, rq = rewritten[i],
                             exec = base.executor](const MatchOptions& mo,
                                                   uint32_t workers) {
      ParallelMatchOptions po = ParallelMatchOptions::FromEnv();
      po.split = workers;
      po.executor = exec;
      return MatchParallel(*matcher, rq->graph, mo, po);
    };
  }
  return ExecutePlan(plan, universe, base);
}

std::string FormatPlan(const QueryPlan& plan,
                       std::span<const std::string> names) {
  std::string out;
  out += "plan " + (plan.name.empty() ? std::string("?") : plan.name);
  out += plan.warm ? " [warm]" : " [cold]";
  out += "\n";
  for (size_t si = 0; si < plan.stages.size(); ++si) {
    const PlanStage& stage = plan.stages[si];
    out += "  stage " + std::to_string(si);
    if (stage.budget.count() > 0) {
      out += " @" + MillisOf(stage.budget) + "ms";
    }
    out += ": ";
    for (size_t k = 0; k < stage.steps.size(); ++k) {
      const PlanStep& step = stage.steps[k];
      if (k > 0) out += " / ";
      out += step.variant < names.size() ? names[step.variant]
                                         : "#" + std::to_string(step.variant);
      if (step.budget.count() > 0) {
        out += "@" + MillisOf(step.budget) + "ms";
      }
      if (step.split > 1) {
        out += " x" + std::to_string(step.split);
      }
    }
    out += "\n";
  }
  return out;
}

std::string FormatPlan(const QueryPlan& plan, const Portfolio& portfolio) {
  std::vector<std::string> names;
  names.reserve(portfolio.entries.size());
  for (const PortfolioEntry& e : portfolio.entries) {
    names.push_back(EntryName(e));
  }
  return FormatPlan(plan, names);
}

}  // namespace psi
