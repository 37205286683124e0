// bench_plan_staged — the query-planning layer's two serving-path claims
// (beyond the paper; see docs/ARCHITECTURE.md "Query planning"):
//
//  1. *Staged racing*: once the online selector is warm, racing the
//     predicted winner alone under a small probe budget — escalating to
//     the full race only on a miss — recovers most of the full race's
//     speedup over a fixed single variant while running far fewer
//     variants per query. Measured in sequential race mode, so the
//     numbers are the idealized per-variant times the paper's speedup*
//     analyses use and hold on a 1-core container.
//
//  2. *Rewrite cache*: on a multi-candidate FTV workload, each query
//     with a surviving candidate fetches its rewritten instances from a
//     shared RewriteCache once, and every (query, graph) verification
//     race shares them — one lookup and at most one rewrite per query and
//     rewriting, not one per surviving candidate graph. Reported as the
//     cache lookups against the pairs they serve.
//
// `--json out.json` archives every metric (see bench_util.hpp JsonOut).

#include <memory>

#include "bench/bench_util.hpp"
#include "graphql/graphql.hpp"
#include "plan/plan.hpp"
#include "plan/planner.hpp"
#include "rewrite/rewrite_cache.hpp"
#include "spath/spath.hpp"

namespace {

using namespace psi;
using namespace psi::bench;

struct PassStats {
  double wla_ms = 0.0;       // sum of per-query race walls (killed: cap)
  double runs = 0.0;         // variants started, total
  size_t escalations = 0;
  size_t killed = 0;
};

PassStats RunPass(const Portfolio& portfolio, const LabelStats& stats,
                  std::span<const gen::Query> workload,
                  const RaceOptions& base, QueryPlanner* planner) {
  PassStats out;
  for (const gen::Query& q : workload) {
    const QueryPlan plan = planner != nullptr
                               ? planner->Plan(q.graph)
                               : FullRacePlan(portfolio.entries.size());
    const PlanResult pr =
        ExecutePortfolioPlan(plan, portfolio, q.graph, stats, base);
    if (planner != nullptr && pr.race.completed()) {
      planner->Observe(plan.features, static_cast<size_t>(pr.race.winner));
    }
    out.wla_ms += pr.race.completed()
                      ? pr.race.wall_ms()
                      : std::chrono::duration<double, std::milli>(base.budget)
                            .count();
    out.runs += static_cast<double>(pr.variant_runs);
    out.escalations += pr.escalated ? 1 : 0;
    out.killed += pr.race.completed() ? 0 : 1;
  }
  return out;
}

void StagedRacingSection(JsonOut& json) {
  const Graph data = Yeast();
  GraphQlMatcher gql;
  SPathMatcher spa;
  if (!gql.Prepare(data).ok() || !spa.Prepare(data).ok()) {
    std::cerr << "prepare failed\n";
    return;
  }
  const LabelStats stats = LabelStats::FromGraph(data);
  const Matcher* matchers[] = {&gql, &spa};
  const Rewriting rewritings[] = {Rewriting::kOriginal, Rewriting::kIlf,
                                  Rewriting::kDnd};
  const Portfolio portfolio =
      MakeMultiAlgorithmPortfolio(matchers, rewritings);
  const size_t n = portfolio.entries.size();

  const auto workload =
      NfvWorkload(data, {8, 16, 24}, QueriesPerSize(12), /*seed=*/20260730);
  std::cout << portfolio.name << ", " << workload.size() << " queries, "
            << n << " variants, sequential (idealized) races\n\n";

  RaceOptions base;
  base.budget = std::chrono::nanoseconds(
      static_cast<int64_t>(CapMs() * 1e6));
  base.max_embeddings = 1000;
  base.mode = RaceMode::kSequential;

  // Fixed single variant (entry 0 = GQL-Orig): the no-framework baseline
  // the paper's speedup* is measured against.
  QueryPlan single;
  single.name = "single";
  single.stages.push_back(PlanStage{{PlanStep{0, {}}}, {}});
  PassStats baseline;
  for (const gen::Query& q : workload) {
    const PlanResult pr =
        ExecutePortfolioPlan(single, portfolio, q.graph, stats, base);
    baseline.wla_ms += pr.race.completed()
                           ? pr.race.wall_ms()
                           : CapMs();
    baseline.runs += static_cast<double>(pr.variant_runs);
  }

  // The classic full race.
  const PassStats full = RunPass(portfolio, stats, workload, base, nullptr);

  // Staged: warm the planner with one full pass (plans stay full races
  // until min_samples outcomes are in), then measure the staged pass.
  QueryPlannerOptions po;
  po.budget = base.budget;
  po.staged = true;
  po.probe_fraction = static_cast<double>(PlanProbePercent()) / 100.0;
  QueryPlanner planner;
  planner.Configure(&portfolio, &stats, po);
  RunPass(portfolio, stats, workload, base, &planner);  // warm-up
  const PassStats staged =
      RunPass(portfolio, stats, workload, base, &planner);

  const double q = static_cast<double>(workload.size());
  const double speedup_full = baseline.wla_ms / std::max(1e-9, full.wla_ms);
  const double speedup_staged =
      baseline.wla_ms / std::max(1e-9, staged.wla_ms);
  const double recovered = speedup_staged / std::max(1e-9, speedup_full);

  std::printf("%-22s %10s %12s %10s\n", "config", "WLA(ms)", "runs/query",
              "escalated");
  std::printf("%-22s %10.1f %12.2f %10s\n", "single(GQL-Orig)",
              baseline.wla_ms, baseline.runs / q, "-");
  std::printf("%-22s %10.1f %12.2f %10s\n", "full race", full.wla_ms,
              full.runs / q, "-");
  std::printf("%-22s %10.1f %12.2f %10zu\n", "staged (warm)", staged.wla_ms,
              staged.runs / q, staged.escalations);
  std::printf("\nspeedup over single: full %.2fx, staged %.2fx "
              "(recovered %.0f%%)\n\n",
              speedup_full, speedup_staged, recovered * 100.0);

  json.Metric("nfv_queries", q);
  json.Metric("nfv_variants", static_cast<double>(n));
  json.Metric("baseline_wla_ms", baseline.wla_ms);
  json.Metric("full_wla_ms", full.wla_ms);
  json.Metric("staged_wla_ms", staged.wla_ms);
  json.Metric("full_runs_per_query", full.runs / q);
  json.Metric("staged_runs_per_query", staged.runs / q);
  json.Metric("staged_escalations", static_cast<double>(staged.escalations));
  json.Metric("speedup_full", speedup_full);
  json.Metric("speedup_staged", speedup_staged);
  json.Metric("staged_recovered_fraction", recovered);

  Shape(recovered >= 0.7,
        "staged racing recovers >= 70% of the full-race speedup once warm");
  Shape(staged.runs / q <= 0.5 * full.runs / q,
        "staged racing runs at most half the variants per query");
}

void RewriteCacheSection(JsonOut& json) {
  // A multi-candidate FTV workload: few labels and small queries keep
  // the filter's survivor sets large, which is exactly the regime where
  // one rewrite per query beats one per surviving pair.
  gen::GraphGenLikeOptions go;
  go.num_graphs = 80;
  go.avg_nodes = 60;
  go.density = 0.10;
  go.num_labels = 5;
  go.seed = 20260731;
  const GraphDataset dataset = gen::GraphGenLike(go);
  const LabelStats stats = LabelStats::FromGraphs(dataset.graphs());

  GrapesIndex index;
  if (!index.Build(dataset).ok()) {
    std::cerr << "index build failed\n";
    return;
  }
  const auto workload =
      FtvWorkload(dataset, {3, 4}, QueriesPerSize(8), /*seed=*/20260732);
  const Rewriting rewritings[] = {Rewriting::kIlf, Rewriting::kInd,
                                  Rewriting::kDnd};

  RewriteCache cache;
  const auto records = RunFtvWorkloadPsiParallel(
      index, workload, rewritings, stats, FtvRunnerOptions(),
      ChooseRaceMode(std::size(rewritings)), /*executor=*/nullptr,
      /*planner=*/nullptr, &cache);

  const RewriteCache::Stats cs = cache.stats();
  const double pairs = static_cast<double>(records.size());
  std::cout << "\nFTV rewrite cache: " << workload.size() << " queries, "
            << records.size() << " verified (query, graph) pairs\n";
  std::printf("lookups=%llu hits=%llu misses=%llu hit_rate=%.1f%% "
              "(distinct rewrites computed: %llu)\n\n",
              static_cast<unsigned long long>(cs.lookups()),
              static_cast<unsigned long long>(cs.hits),
              static_cast<unsigned long long>(cs.misses),
              cs.hit_rate() * 100.0,
              static_cast<unsigned long long>(cs.misses));

  json.Metric("ftv_queries", static_cast<double>(workload.size()));
  json.Metric("ftv_pairs", pairs);
  json.Metric("rewrite_cache_lookups", static_cast<double>(cs.lookups()));
  json.Metric("rewrite_cache_hits", static_cast<double>(cs.hits));
  json.Metric("rewrite_cache_hit_rate", cs.hit_rate());

  Shape(cs.lookups() <= workload.size() * std::size(rewritings),
        "one rewrite lookup per FTV query and rewriting, not per pair");
  Shape(pairs / std::max(1.0, static_cast<double>(workload.size())) >= 5.0,
        "workload is genuinely multi-candidate (>= 5 pairs/query)");
}

}  // namespace

int main(int argc, char** argv) {
  JsonOut json("bench_plan_staged", argc, argv);
  Banner("bench_plan_staged",
         "the query-planning layer (beyond the paper; SS9 direction)");
  StagedRacingSection(json);
  RewriteCacheSection(json);
  return 0;
}
