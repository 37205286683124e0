// Straggler hunt: the paper's core observations in one runnable story.
// Generates a workload over a yeast-like graph, finds the straggler
// queries of GraphQL, and shows that (i) an isomorphic rewriting or
// (ii) another algorithm (sPath) — i.e. exactly what the Ψ-framework
// races — rescues them.
//
//   $ ./examples/straggler_hunt

#include <algorithm>
#include <iostream>
#include <vector>

#include "core/label_stats.hpp"
#include "gen/dataset_gen.hpp"
#include "gen/query_gen.hpp"
#include "graphql/graphql.hpp"
#include "psi/portfolio.hpp"
#include "spath/spath.hpp"

int main() {
  using namespace psi;

  const Graph data = gen::YeastLike(1, 99);
  const LabelStats stats = LabelStats::FromGraph(data);
  GraphQlMatcher gql;
  SPathMatcher spa;
  if (!gql.Prepare(data).ok() || !spa.Prepare(data).ok()) return 1;

  auto workload = gen::GenerateWorkload(data, 60, 24, 555);
  if (!workload.ok()) return 1;

  // Run everything under a small cap; collect per-query times.
  const double cap_ms = 100.0;
  MatchOptions opts;
  opts.max_embeddings = 1000;
  struct Row {
    size_t index;
    double ms;
    bool killed;
  };
  std::vector<Row> rows;
  for (size_t i = 0; i < workload->size(); ++i) {
    MatchOptions o = opts;
    o.deadline = Deadline::AfterMillis(static_cast<int64_t>(cap_ms));
    auto r = gql.Match((*workload)[i].graph, o);
    rows.push_back({i, r.complete ? r.elapsed_ms() : cap_ms, !r.complete});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.ms > b.ms; });

  const double median = rows[rows.size() / 2].ms;
  std::cout << "GraphQL on " << workload->size()
            << " 24-edge queries (cap " << cap_ms
            << "ms): median=" << median << "ms, slowest=" << rows[0].ms
            << "ms\n\nTop stragglers and their rescues:\n";

  const Matcher* matchers[] = {&gql, &spa};
  const Rewriting rewritings[] = {Rewriting::kOriginal, Rewriting::kIlf,
                                  Rewriting::kDnd};
  const Portfolio portfolio =
      MakeMultiAlgorithmPortfolio(matchers, rewritings);

  int shown = 0;
  for (const Row& row : rows) {
    if (shown >= 5) break;
    if (row.ms < 10.0 * median) continue;  // only true stragglers
    ++shown;
    const Graph& q = (*workload)[row.index].graph;
    RaceOptions ro;
    ro.budget = std::chrono::milliseconds(static_cast<int64_t>(cap_ms));
    ro.max_embeddings = 1000;
    ro.mode = RaceMode::kSequential;  // report every contender
    auto race = RunPortfolio(portfolio, q, stats, ro);
    std::cout << "  query#" << row.index << "  GQL-Orig: "
              << (row.killed ? "KILLED" : std::to_string(row.ms) + "ms")
              << "  ->";
    if (race.completed()) {
      std::cout << " winner " << race.workers[race.winner].name << " in "
                << race.wall_ms() << "ms\n";
    } else {
      std::cout << " no contender finished\n";
    }
  }
  if (shown == 0) {
    std::cout << "  (no straggler above 10x median in this workload — "
                 "increase the workload size or query size)\n";
  }
  std::cout << "\nThis is Observation 2 + 5 of the paper: stragglers are "
               "instance- and algorithm-specific, so racing rewritings and "
               "algorithms (the Ψ-framework) removes them.\n";
  return 0;
}
