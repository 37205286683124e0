#include "plan/planner.hpp"

#include <algorithm>

#include "core/env.hpp"

namespace psi {

QueryPlannerOptions QueryPlannerOptions::FromEnv() {
  QueryPlannerOptions o;
  o.staged = PlanStaged();
  o.probe_fraction = static_cast<double>(PlanProbePercent()) / 100.0;
  o.min_samples = static_cast<size_t>(PlanMinSamples());
  o.split_workers = static_cast<size_t>(MatchSplit());
  return o;
}

void QueryPlanner::Configure(const Portfolio* portfolio,
                             const LabelStats* stats,
                             const QueryPlannerOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  portfolio_ = portfolio;
  stats_ = stats;
  options_ = options;
  selector_ = OnlineSelector();
}

QueryPlan QueryPlanner::Plan(const Graph& query) const {
  return Plan(ExtractFeatures(query, *stats_));
}

QueryPlan QueryPlanner::Plan(const QueryFeatures& features) const {
  QueryPlan plan;
  plan.features = features;
  const size_t n = portfolio_->entries.size();
  if (n == 0) return plan;

  std::vector<size_t> order;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (selector_.sample_count() >= options_.min_samples) {
      order = selector_.Rank(features, n);
      plan.warm = true;
    }
  }
  // The classic unstaged, unnarrowed race needs no ordering decision at
  // all — skip the rule pass and race in portfolio order.
  const bool narrowing = options_.portfolio_limit > 0 &&
                         options_.portfolio_limit < n && plan.warm;
  const bool staging = options_.staged && plan.warm && n > 1 &&
                       options_.budget.count() > 0;
  if (!plan.warm) {
    if (!options_.staged && options_.portfolio_limit == 0) {
      QueryPlan full = FullRacePlan(n, options_.budget);
      full.features = features;
      return full;
    }
    order = RuleBasedOrder(features);
  }

  PlanStage full;
  full.budget = options_.budget;
  const size_t full_size = narrowing ? options_.portfolio_limit : n;
  for (size_t i = 0; i < full_size && i < order.size(); ++i) {
    full.steps.push_back(PlanStep{order[i], {}});
  }

  if (staging) {
    PlanStage probe = ProbeStage(order, options_.probe_variants,
                                 options_.probe_fraction, options_.budget);
    if (options_.split_workers > 1 && !order.empty()) {
      // Probe miss → throw the pool at the predicted winner instead of
      // widening the race: one split step at the full budget.
      PlanStage split_stage;
      split_stage.budget = options_.budget;
      PlanStep step{order[0], {}};
      step.split = static_cast<uint32_t>(options_.split_workers);
      split_stage.steps.push_back(step);
      plan.name = "staged(top" + std::to_string(probe.steps.size()) +
                  "->split" + std::to_string(options_.split_workers) + ")";
      plan.escalation = EscalationPolicy::kSplit;
      plan.stages.push_back(std::move(probe));
      plan.stages.push_back(std::move(split_stage));
      return plan;
    }
    plan.name = "staged(top" + std::to_string(probe.steps.size()) + "->" +
                (narrowing ? "top" + std::to_string(full.steps.size())
                           : std::string("full")) +
                ")";
    plan.escalation = EscalationPolicy::kOnMiss;
    plan.stages.push_back(std::move(probe));
    plan.stages.push_back(std::move(full));
    return plan;
  }

  plan.name = narrowing
                  ? "top" + std::to_string(full.steps.size())
                  : std::string(plan.warm ? "full(ranked)" : "full(rules)");
  plan.escalation = EscalationPolicy::kNone;
  plan.stages.push_back(std::move(full));
  return plan;
}

std::vector<size_t> QueryPlanner::RuleBasedOrder(
    const QueryFeatures& f) const {
  const size_t n = portfolio_->entries.size();
  // Distinct matchers in first-appearance order, for SelectAlgorithm.
  std::vector<const Matcher*> matchers;
  for (const PortfolioEntry& e : portfolio_->entries) {
    if (e.matcher != nullptr &&
        std::find(matchers.begin(), matchers.end(), e.matcher) ==
            matchers.end()) {
      matchers.push_back(e.matcher);
    }
  }
  const Rewriting preferred_rewriting = SelectRewriting(f);
  const Matcher* preferred_matcher =
      matchers.empty() ? nullptr : matchers[SelectAlgorithm(f, matchers)];

  // Stable two-bit scoring: agreeing with both rules first, one rule
  // next, portfolio order within each tier.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  auto score = [&](size_t i) {
    const PortfolioEntry& e = portfolio_->entries[i];
    int s = 0;
    if (e.rewriting == preferred_rewriting) s += 2;
    if (preferred_matcher != nullptr && e.matcher == preferred_matcher) {
      s += 1;
    }
    return s;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return score(a) > score(b); });
  return order;
}

void QueryPlanner::Observe(const QueryFeatures& features,
                           size_t winner_variant) {
  std::lock_guard<std::mutex> lock(mutex_);
  selector_.Observe(features, winner_variant);
}

size_t QueryPlanner::sample_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return selector_.sample_count();
}

}  // namespace psi
