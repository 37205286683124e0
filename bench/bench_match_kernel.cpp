// bench_match_kernel — the candidate-index kernel's effect on the four
// matchers (match/candidate_index.hpp): per-matcher NFV workload
// wall-clock, candidates_tried / recursion-node reduction, and variant-run
// throughput with the index on vs. off. Not a paper figure — this tracks
// the serving-path kernel optimization against the ROADMAP's "as fast as
// the hardware allows" goal; CI's bench-smoke job archives the --json
// output so every commit appends a data point.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/env.hpp"
#include "core/label_stats.hpp"
#include "graphql/graphql.hpp"
#include "match/candidate_index.hpp"
#include "metrics/metrics.hpp"
#include "psi/portfolio.hpp"
#include "quicksi/quicksi.hpp"
#include "spath/spath.hpp"
#include "vf2/vf2.hpp"
#include "workload/runner.hpp"

using namespace psi;
using namespace psi::bench;

namespace {

std::unique_ptr<Matcher> MakeMatcher(int which) {
  switch (which) {
    case 0: return std::make_unique<Vf2Matcher>();
    case 1: return std::make_unique<QuickSiMatcher>();
    case 2: return std::make_unique<GraphQlMatcher>();
    default: return std::make_unique<SPathMatcher>();
  }
}

struct Arm {
  double wall_ms = 0.0;
  uint64_t tried = 0;
  uint64_t recursion = 0;
  uint64_t nlf_rejects = 0;
  uint64_t bitset_checks = 0;
  uint64_t slice_candidates = 0;
  uint64_t multiway = 0;
  uint64_t shortcuts = 0;
  std::vector<uint64_t> embeddings;  // per query
  std::vector<bool> complete;        // per query
};

// Serial per-matcher workload pass, accumulating the effort counters the
// runner records discard.
Arm RunArm(const Matcher& m, std::span<const gen::Query> workload,
           double cap_ms, bool multiway = true,
           uint64_t max_embeddings = 1000 /* paper §3.2 */) {
  Arm a;
  for (const auto& q : workload) {
    MatchOptions mo;
    mo.max_embeddings = max_embeddings;
    mo.multiway = multiway;
    if (cap_ms > 0) {
      mo.deadline = Deadline::After(
          std::chrono::nanoseconds(static_cast<int64_t>(cap_ms * 1e6)));
    }
    const MatchResult r = m.Match(q.graph, mo);
    a.wall_ms += r.elapsed_ms();
    a.tried += r.stats.candidates_tried;
    a.recursion += r.stats.recursion_nodes;
    a.nlf_rejects += r.stats.nlf_rejects;
    a.bitset_checks += r.stats.bitset_edge_checks;
    a.slice_candidates += r.stats.slice_candidates;
    a.multiway += r.stats.multiway_intersections;
    a.shortcuts += r.stats.intersection_shortcuts;
    a.embeddings.push_back(r.embedding_count);
    a.complete.push_back(r.complete);
  }
  return a;
}

// False, with a message on stderr, unless every query of `arm` ran to
// completion. A query cut off by the per-query cap has no comparable
// count, so it fails the bench instead of reading as a divergence.
bool AllComplete(const Arm& arm, const char* matcher, const char* tag,
                 double cap_ms) {
  for (size_t i = 0; i < arm.complete.size(); ++i) {
    if (!arm.complete[i]) {
      std::cerr << "INCOMPLETE: " << matcher << "/" << tag << " query " << i
                << " hit the " << cap_ms
                << " ms cap; rerun with a larger PSI_CAP_MS\n";
      return false;
    }
  }
  return true;
}

// False, with a message on stderr, unless `got` found as many embeddings
// as `want` on every query. Both arms must be complete (AllComplete).
bool SameAnswers(const Arm& got, const Arm& want, const char* matcher,
                 const char* tag) {
  for (size_t i = 0; i < want.embeddings.size(); ++i) {
    if (got.embeddings[i] != want.embeddings[i]) {
      std::cerr << "ANSWER DIVERGENCE in " << matcher << "/" << tag
                << " query " << i << ": " << got.embeddings[i] << " vs "
                << want.embeddings[i] << "\n";
      return false;
    }
  }
  return true;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// One wall-clock window of --multiway: whole passes of RunArm repeat
// until the window has run for kWindowMs, and the window reads its time
// per pass, so an arm's wall does not hang on a few milliseconds of
// timing. Nothing when a pass left a query incomplete (AllComplete says
// which).
constexpr int kWindows = 5;
constexpr double kWindowMs = 200.0;
std::optional<double> WindowMsPerPass(const Matcher& m,
                                      std::span<const gen::Query> workload,
                                      double cap_ms, bool multiway,
                                      uint64_t max_embeddings,
                                      const char* matcher, const char* tag) {
  using Clock = std::chrono::steady_clock;
  int passes = 0;
  double ms = 0.0;
  const auto t0 = Clock::now();
  do {
    const Arm r = RunArm(m, workload, cap_ms, multiway, max_embeddings);
    if (!AllComplete(r, matcher, tag, cap_ms)) return std::nullopt;
    ++passes;
    ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  } while (ms < kWindowMs);
  return ms / passes;
}

// Cyclic NFV workload: only queries with at least one cycle. A tree query
// never gives a connected matching order two matched backward neighbours,
// so it can't exercise the multiway kernel at all — the generated
// workloads are tree-heavy on sparse graphs, which would measure nothing.
std::vector<gen::Query> CyclicWorkload(const Graph& g,
                                       std::vector<uint32_t> sizes,
                                       uint32_t per_size, uint64_t seed) {
  std::vector<gen::Query> all;
  for (uint32_t s : sizes) {
    uint32_t got = 0;
    for (uint64_t round = 0; round < 200 && got < per_size; ++round) {
      auto w = gen::GenerateWorkload(g, per_size, s,
                                     seed + s * 131 + round * 10007);
      if (!w.ok()) continue;
      for (auto& q : *w) {
        if (got < per_size &&
            q.graph.num_edges() >= q.graph.num_vertices()) {
          all.push_back(std::move(q));
          ++got;
        }
      }
    }
  }
  return all;
}

// --multiway: the WCOJ extension kernel (match/intersect.hpp) against the
// enumerate-then-check path, both under the shared index — legacy
// (multiway off) vs. multiway on. Same workload, same answers, fewer
// candidates tried. Each arm's wall is per pass over the workload, the
// best of five interleaved windows of at least 200 ms (WindowMsPerPass).
int RunMultiwayComparison(JsonOut& json, const Graph& g, double cap_ms) {
  // Small cyclic motifs (triangles, squares, diamonds, near-cliques):
  // nearly every extension past depth 1 closes a cycle, which is the
  // workload shape WCOJ-style intersection exists for. Larger generated
  // queries are tree-dominated — one shallow cycle closer, then deep
  // tree enumeration the kernel rightly leaves to the anchored path.
  const auto workload =
      CyclicWorkload(g, {3, 4, 5, 6}, QueriesPerSize(12), /*seed=*/20260808);
  std::cout << "cyclic workload: " << workload.size() << " queries\n\n";
  const auto shared_index = CandidateIndex::Build(g);

  const char* names[] = {"VF2", "QSI", "GQL", "SPA"};
  struct ArmSpec {
    const char* tag;
    bool multiway;
  };
  const ArmSpec arms[] = {{"legacy", false}, {"multiway", true}};
  double wall[2] = {0, 0};
  uint64_t tried[2] = {0, 0};
  std::cout << "matcher  arm        wall_ms      tried   multiway  "
               "shortcuts\n";
  for (int which = 0; which < 4; ++which) {
    auto m = MakeMatcher(which);
    m->set_candidate_index(shared_index);
    if (!m->Prepare(g).ok()) {
      std::cerr << "prepare failed\n";
      return 1;
    }
    // Deep searches (100k embeddings, same per-query deadline): this mode
    // measures enumeration kernel throughput, so don't let per-Match fixed
    // costs (stage-1 candidate building, path decomposition) dominate the
    // way the 1000-cap serving runs do.
    constexpr uint64_t kDeepCap = 100000;
    Arm results[2];
    RunArm(*m, workload, cap_ms, false, kDeepCap);  // warm-up
    // The counters are deterministic: one pass per arm reads them.
    for (int a = 0; a < 2; ++a) {
      results[a] = RunArm(*m, workload, cap_ms, arms[a].multiway, kDeepCap);
      if (!AllComplete(results[a], names[which], arms[a].tag, cap_ms)) {
        return 1;
      }
    }
    // The wall is the best of kWindows windows per arm, with the two
    // arms' windows interleaved so both see the same stretch of host load.
    for (int w = 0; w < kWindows; ++w) {
      for (int a = 0; a < 2; ++a) {
        const auto ms = WindowMsPerPass(*m, workload, cap_ms,
                                        arms[a].multiway, kDeepCap,
                                        names[which], arms[a].tag);
        if (!ms) return 1;
        results[a].wall_ms = w == 0 ? *ms : std::min(results[a].wall_ms, *ms);
      }
    }
    for (int a = 0; a < 2; ++a) {
      std::printf("%-7s  %-8s  %9.2f  %9llu  %9llu  %9llu\n", names[which],
                  arms[a].tag, results[a].wall_ms,
                  static_cast<unsigned long long>(results[a].tried),
                  static_cast<unsigned long long>(results[a].multiway),
                  static_cast<unsigned long long>(results[a].shortcuts));
      wall[a] += results[a].wall_ms;
      tried[a] += results[a].tried;
      json.Metric(std::string("multiway_wall_ms_") + arms[a].tag + "_" +
                      names[which],
                  results[a].wall_ms);
    }
    if (!SameAnswers(results[1], results[0], names[which], arms[1].tag)) {
      return 1;
    }
    const double speedup = Ratio(results[0].wall_ms, results[1].wall_ms);
    const double tried_red = Ratio(static_cast<double>(results[0].tried),
                                   static_cast<double>(results[1].tried));
    std::printf("%-7s  =>    tried x%.2f   wall x%.2f\n\n", names[which],
                tried_red, speedup);
    json.Metric(std::string("multiway_wall_speedup_") + names[which],
                speedup);
    json.Metric(std::string("multiway_tried_reduction_") + names[which],
                tried_red);
  }

  const double tried_reduction =
      Ratio(static_cast<double>(tried[0]), static_cast<double>(tried[1]));
  const double wall_speedup = Ratio(wall[0], wall[1]);
  std::cout << "aggregate: tried x" << tried_reduction << ", wall x"
            << wall_speedup << "\n";
  json.Metric("multiway_tried_reduction_all", tried_reduction);
  json.Metric("multiway_wall_speedup_all", wall_speedup);

  Shape(tried_reduction > 1.0,
        "multiway intersection tries strictly fewer candidates than the "
        "enumerate-then-check kernel");
  Shape(wall_speedup > 1.0,
        "multiway improves serial NFV wall-clock over the PR 5 kernel "
        "(noisy on shared runners)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool multiway_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--multiway") multiway_mode = true;
  }
  JsonOut json(multiway_mode ? "bench_match_kernel_multiway"
                             : "bench_match_kernel",
               argc, argv);
  Banner(multiway_mode
             ? "Multiway (WCOJ) extension kernel vs. enumerate-then-check"
             : "Match-kernel ablation (index on/off, all four matchers)",
         "the candidate-index kernel (no paper figure)");

  const Graph g = Yeast();
  std::cout << "stored graph: " << g.num_vertices() << " vertices, "
            << g.num_edges() << " edges, " << g.NumDistinctLabels()
            << " labels\n";
  const auto workload =
      NfvWorkload(g, {4, 8, 12}, QueriesPerSize(8), /*seed=*/20260730);
  std::cout << "workload: " << workload.size() << " queries\n\n";
  const double cap_ms = CapMs();

  if (multiway_mode) {
    return RunMultiwayComparison(json, g, cap_ms);
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto shared_index = CandidateIndex::Build(g);
  const double build_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  std::cout << "index build: " << build_ms << " ms, "
            << shared_index->memory_bytes() / 1024 << " KiB, "
            << shared_index->num_hubs() << " hubs\n\n";
  json.Metric("index_build_ms", build_ms);
  json.Metric("index_kib",
              static_cast<double>(shared_index->memory_bytes()) / 1024.0);

  const char* names[] = {"VF2", "QSI", "GQL", "SPA"};
  double total_on = 0.0, total_off = 0.0;
  uint64_t tried_on = 0, tried_off = 0, rec_on = 0, rec_off = 0;
  std::cout << "matcher  arm    wall_ms      tried   recursion  "
               "nlf_rej  bitset  slice\n";
  for (int which = 0; which < 4; ++which) {
    auto with = MakeMatcher(which);
    with->set_candidate_index(shared_index);
    auto without = MakeMatcher(which);
    without->set_candidate_index(nullptr);
    if (!with->Prepare(g).ok() || !without->Prepare(g).ok()) {
      std::cerr << "prepare failed\n";
      return 1;
    }
    // Warm-up pass (touches the lazy caches and the scratch) then measure.
    RunArm(*without, workload, cap_ms);
    const Arm off = RunArm(*without, workload, cap_ms);
    RunArm(*with, workload, cap_ms);
    const Arm on = RunArm(*with, workload, cap_ms);
    if (!AllComplete(off, names[which], "off", cap_ms) ||
        !AllComplete(on, names[which], "on", cap_ms) ||
        !SameAnswers(on, off, names[which], "on")) {
      return 1;
    }
    for (const Arm* a : {&off, &on}) {
      std::printf("%-7s  %-3s  %9.2f  %9llu  %10llu  %7llu  %6llu  %5llu\n",
                  names[which], a == &on ? "on" : "off", a->wall_ms,
                  static_cast<unsigned long long>(a->tried),
                  static_cast<unsigned long long>(a->recursion),
                  static_cast<unsigned long long>(a->nlf_rejects),
                  static_cast<unsigned long long>(a->bitset_checks),
                  static_cast<unsigned long long>(a->slice_candidates));
    }
    const double tried_red = Ratio(static_cast<double>(off.tried),
                                   static_cast<double>(on.tried));
    const double speedup = Ratio(off.wall_ms, on.wall_ms);
    std::printf("%-7s  =>   tried x%.2f   wall x%.2f\n\n", names[which],
                tried_red, speedup);
    json.Metric(std::string("tried_reduction_") + names[which], tried_red);
    json.Metric(std::string("wall_speedup_") + names[which], speedup);
    json.Metric(std::string("wall_ms_on_") + names[which], on.wall_ms);
    json.Metric(std::string("wall_ms_off_") + names[which], off.wall_ms);
    total_on += on.wall_ms;
    total_off += off.wall_ms;
    tried_on += on.tried;
    tried_off += off.tried;
    rec_on += on.recursion;
    rec_off += off.recursion;
  }

  const double tried_reduction =
      Ratio(static_cast<double>(tried_off), static_cast<double>(tried_on));
  const double wall_speedup = Ratio(total_off, total_on);
  const double recursion_reduction =
      Ratio(static_cast<double>(rec_off), static_cast<double>(rec_on));
  std::cout << "aggregate: candidates_tried x" << tried_reduction
            << ", recursion x" << recursion_reduction << ", wall x"
            << wall_speedup << "\n";
  json.Metric("tried_reduction_all", tried_reduction);
  json.Metric("recursion_reduction_all", recursion_reduction);
  json.Metric("wall_speedup_all", wall_speedup);

  // Variant-run throughput: the Ψ race multiplies any kernel win across
  // 1-6 variant runs per query; measure a 4-contender pool race end to
  // end.
  {
    const LabelStats stats = LabelStats::FromGraph(g);
    Executor pool(static_cast<size_t>(PoolThreads()));
    RunnerOptions ro = NfvRunnerOptions();
    double race_ms[2] = {0.0, 0.0};
    for (int on = 0; on < 2; ++on) {
      GraphQlMatcher gql;
      SPathMatcher spa;
      std::shared_ptr<const CandidateIndex> idx =
          on != 0 ? shared_index : nullptr;
      gql.set_candidate_index(idx);
      spa.set_candidate_index(idx);
      if (!gql.Prepare(g).ok() || !spa.Prepare(g).ok()) return 1;
      const Matcher* ms[] = {&gql, &spa};
      const Rewriting rw[] = {Rewriting::kOriginal, Rewriting::kDnd};
      const Portfolio p = MakeMultiAlgorithmPortfolio(ms, rw);
      const auto r0 = std::chrono::steady_clock::now();
      const auto records =
          RunWorkloadPsi(p, workload, stats, ro, RaceMode::kPool, &pool);
      race_ms[on] = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - r0)
                        .count();
      std::cout << "variant-run race (" << (on ? "on" : "off")
                << "): " << race_ms[on] << " ms for " << records.size()
                << " queries\n";
    }
    json.Metric("race_wall_ms_off", race_ms[0]);
    json.Metric("race_wall_ms_on", race_ms[1]);
    json.Metric("race_speedup", Ratio(race_ms[0], race_ms[1]));
  }

  Shape(tried_reduction >= 1.5,
        "index cuts candidates_tried >= 1.5x across the four matchers");
  Shape(wall_speedup > 1.0,
        "index improves aggregate NFV wall-clock (noisy on shared runners)");
  return 0;
}
