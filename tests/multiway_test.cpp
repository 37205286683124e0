// Differential and closed-form tests of the multiway (WCOJ) extension
// kernel (match/intersect.hpp + MatchOptions::multiway):
//
//  * 100-seed differential harness (PSI_TEST_SEEDS): for every matcher
//    (VF2, QuickSI, GraphQL, sPath) under the candidate index, the
//    embedding *stream* must be byte-identical with multiway off (the
//    enumerate-then-check path) and on — serially and under the root
//    split.
//  * Counter exactness: serial vs. split with multiway on report exactly
//    equal MatchStats, the multiway counters included.
//  * Degraded pools: a capacity-0 reject-all pool and a shedding pool
//    (every range re-runs inline / displaced) stay byte-identical and
//    counter-exact with multiway on.
//  * Without an index the multiway request is ignored (the kernel needs
//    label slices); streams match the legacy path bit for bit.
//  * The counters surface through MatchKernelStats -> PoolGauges and
//    FormatKernelGauges.
//  * Closed-form oracle: motif counts in complete graphs, a wheel and a
//    grid, known without running any matcher, for every matcher with the
//    index off, and on with multiway off and on.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/env.hpp"
#include "exec/executor.hpp"
#include "gen/dataset_gen.hpp"
#include "gen/query_gen.hpp"
#include "graphql/graphql.hpp"
#include "match/candidate_index.hpp"
#include "match/intersect.hpp"
#include "match/parallel.hpp"
#include "metrics/metrics.hpp"
#include "quicksi/quicksi.hpp"
#include "spath/spath.hpp"
#include "tests/test_util.hpp"
#include "vf2/vf2.hpp"

namespace psi {
namespace {

int NumSeeds() { return static_cast<int>(EnvInt("PSI_TEST_SEEDS", 100)); }

Graph MakeDataGraph(uint64_t seed) {
  gen::GraphGenLikeOptions o;
  o.num_graphs = 1;
  o.avg_nodes = 40 + static_cast<uint32_t>(seed % 7) * 10;  // 40..100
  o.density = 0.05 + 0.01 * static_cast<double>(seed % 5);
  o.num_labels = 3 + static_cast<uint32_t>(seed % 8);  // 3..10
  o.seed = seed * 7919 + 11;
  return gen::GraphGenLike(o).graph(0);
}

std::vector<gen::Query> MakeQueries(const Graph& g, uint64_t seed) {
  const uint32_t size = 4 + static_cast<uint32_t>(seed % 4);  // 4..7
  auto w = gen::GenerateWorkload(g, /*count=*/3, size, seed * 104729 + 5);
  return w.ok() ? std::move(w).value() : std::vector<gen::Query>{};
}

std::unique_ptr<Matcher> MakeMatcher(int which) {
  switch (which) {
    case 0: return std::make_unique<Vf2Matcher>();
    case 1: return std::make_unique<QuickSiMatcher>();
    case 2: return std::make_unique<GraphQlMatcher>();
    default: return std::make_unique<SPathMatcher>();
  }
}

struct Capture {
  std::vector<Embedding> stream;
  MatchResult result;
};

Capture Serial(const Matcher& m, const Graph& q, bool multiway) {
  Capture r;
  MatchOptions mo;
  mo.max_embeddings = 1u << 30;
  mo.multiway = multiway;
  mo.sink = [&](const Embedding& e) {
    r.stream.push_back(e);
    return true;
  };
  r.result = m.Match(q, mo);
  return r;
}

Capture Split(const Matcher& m, const Graph& q, bool multiway, size_t width,
              Executor* exec) {
  Capture r;
  MatchOptions mo;
  mo.max_embeddings = 1u << 30;
  mo.multiway = multiway;
  mo.sink = [&](const Embedding& e) {
    r.stream.push_back(e);
    return true;
  };
  ParallelMatchOptions po;
  po.split = width;
  po.min_slice = 1;
  po.executor = exec;
  r.result = MatchParallel(m, q, mo, po);
  return r;
}

void ExpectSameStream(const Capture& got, const Capture& want,
                      const char* tag) {
  ASSERT_EQ(got.stream, want.stream) << tag << ": embedding stream diverged";
  EXPECT_EQ(got.result.embedding_count, want.result.embedding_count) << tag;
  EXPECT_EQ(got.result.complete, want.result.complete) << tag;
}

// Full counter equality, the multiway triple included — for comparing two
// runs of the *same* kernel configuration (serial vs. split).
void ExpectSameStats(const MatchStats& a, const MatchStats& b,
                     const char* tag) {
  EXPECT_EQ(a.recursion_nodes, b.recursion_nodes) << tag;
  EXPECT_EQ(a.candidates_tried, b.candidates_tried) << tag;
  EXPECT_EQ(a.nlf_rejects, b.nlf_rejects) << tag;
  EXPECT_EQ(a.bitset_edge_checks, b.bitset_edge_checks) << tag;
  EXPECT_EQ(a.slice_candidates, b.slice_candidates) << tag;
  EXPECT_EQ(a.multiway_intersections, b.multiway_intersections) << tag;
  EXPECT_EQ(a.intersection_shortcuts, b.intersection_shortcuts) << tag;
}

// ---- Differential: multiway on/off, serial + split ----

TEST(MultiwayDifferentialTest, StreamsIdenticalAcrossModesAndMatchers) {
  Executor pool(/*num_threads=*/4);
  const int seeds = NumSeeds();
  uint64_t total_intersections = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    const Graph g = MakeDataGraph(static_cast<uint64_t>(seed));
    const auto queries = MakeQueries(g, static_cast<uint64_t>(seed));
    const int which = seed % 4;
    const size_t width = (seed % 2) == 0 ? 2 : 4;
    auto m = MakeMatcher(which);
    m->set_candidate_index(CandidateIndex::Build(g));
    ASSERT_TRUE(m->Prepare(g).ok());
    for (const auto& q : queries) {
      const Capture legacy = Serial(*m, q.graph, /*multiway=*/false);
      const Capture on = Serial(*m, q.graph, /*multiway=*/true);
      ExpectSameStream(on, legacy, m->name().data());
      total_intersections += on.result.stats.multiway_intersections;
      // Root split, multiway on: still the legacy stream, and exactly the
      // serial multiway counters.
      const Capture split = Split(*m, q.graph, /*multiway=*/true, width,
                                  &pool);
      ExpectSameStream(split, legacy, m->name().data());
      ExpectSameStats(split.result.stats, on.result.stats,
                      m->name().data());
      // And multiway off under the same split: still the legacy stream.
      const Capture split_off = Split(*m, q.graph, /*multiway=*/false,
                                      width, &pool);
      ExpectSameStream(split_off, legacy, m->name().data());
    }
  }
  // The harness would be vacuous if the kernel never engaged: generated
  // queries of size 4..7 reach >= 2 matched backward neighbours often.
  EXPECT_GT(total_intersections, 0u);
}

// ---- Degraded pools (displaced/inline ranges) ----

TEST(MultiwayTest, CapacityZeroRejectPoolStaysExact) {
  ExecutorOptions eo;
  eo.num_threads = 2;
  eo.queue_capacity = 0;
  eo.overload_policy = OverloadPolicy::kRejectNew;
  Executor pool(eo);
  const Graph g = MakeDataGraph(7);
  const auto queries = MakeQueries(g, 7);
  ASSERT_FALSE(queries.empty());
  Vf2Matcher m;
  m.set_candidate_index(CandidateIndex::Build(g));
  ASSERT_TRUE(m.Prepare(g).ok());
  for (const auto& q : queries) {
    const Capture serial = Serial(m, q.graph, /*multiway=*/true);
    const Capture on = Split(m, q.graph, /*multiway=*/true, 4, &pool);
    ExpectSameStream(on, serial, "capacity0+multiway");
    ExpectSameStats(on.result.stats, serial.result.stats,
                    "capacity0+multiway");
  }
}

TEST(MultiwayTest, SheddingPoolStaysExact) {
  ExecutorOptions eo;
  eo.num_threads = 1;
  eo.queue_capacity = 1;
  eo.overload_policy = OverloadPolicy::kShedLatestDeadline;
  Executor pool(eo);
  const Graph g = MakeDataGraph(8);
  const auto queries = MakeQueries(g, 8);
  ASSERT_FALSE(queries.empty());
  GraphQlMatcher m;
  m.set_candidate_index(CandidateIndex::Build(g));
  ASSERT_TRUE(m.Prepare(g).ok());
  for (const auto& q : queries) {
    const Capture serial = Serial(m, q.graph, /*multiway=*/true);
    const Capture on = Split(m, q.graph, /*multiway=*/true, 8, &pool);
    ExpectSameStream(on, serial, "shed+multiway");
    ExpectSameStats(on.result.stats, serial.result.stats, "shed+multiway");
  }
}

// ---- No index: the request is a no-op ----

TEST(MultiwayTest, WithoutIndexMultiwayIsIgnored) {
  const Graph g = MakeDataGraph(11);
  const auto queries = MakeQueries(g, 11);
  ASSERT_FALSE(queries.empty());
  for (int which = 0; which < 4; ++which) {
    auto m = MakeMatcher(which);
    m->set_candidate_index(nullptr);
    ASSERT_TRUE(m->Prepare(g).ok());
    for (const auto& q : queries) {
      const Capture off = Serial(*m, q.graph, /*multiway=*/false);
      const Capture on = Serial(*m, q.graph, /*multiway=*/true);
      ExpectSameStream(on, off, m->name().data());
      EXPECT_EQ(on.result.stats.multiway_intersections, 0u);
      ExpectSameStats(on.result.stats, off.result.stats, m->name().data());
    }
  }
}

// ---- Gauges ----

TEST(MultiwayTest, CountersSurfaceThroughPoolGauges) {
  // Dense single-label graph + cyclic queries (a generated query can come
  // out a tree, where one matched backward neighbour is all any extension
  // ever has): a triangle and a chorded 4-cycle guarantee inner depths
  // with >= 2 matched neighbours, so the kernel must engage.
  gen::GraphGenLikeOptions o;
  o.num_graphs = 1;
  o.avg_nodes = 50;
  o.density = 0.25;
  o.num_labels = 1;
  o.seed = 4242;
  const Graph g = gen::GraphGenLike(o).graph(0);
  std::vector<Graph> queries;
  {
    GraphBuilder tri;
    for (int i = 0; i < 3; ++i) tri.AddVertex(0);
    tri.AddEdge(0, 1);
    tri.AddEdge(1, 2);
    tri.AddEdge(0, 2);
    queries.push_back(std::move(tri).Build("triangle").value());
    GraphBuilder diamond;
    for (int i = 0; i < 4; ++i) diamond.AddVertex(0);
    diamond.AddEdge(0, 1);
    diamond.AddEdge(1, 2);
    diamond.AddEdge(2, 3);
    diamond.AddEdge(3, 0);
    diamond.AddEdge(0, 2);
    queries.push_back(std::move(diamond).Build("diamond").value());
  }
  for (int which = 0; which < 4; ++which) {
    auto m = MakeMatcher(which);
    m->set_candidate_index(CandidateIndex::Build(g));
    ASSERT_TRUE(m->Prepare(g).ok());
    uint64_t serial_total = 0;
    for (const auto& q : queries) {
      const Capture c = Serial(*m, q, /*multiway=*/true);
      serial_total += c.result.stats.multiway_intersections;
    }
    EXPECT_GT(serial_total, 0u) << m->name();
    PoolGauges gauges;
    m->kernel_stats().AddTo(&gauges);
    EXPECT_EQ(gauges.kernel_multiway_intersections, serial_total)
        << m->name();
    const std::string line = FormatKernelGauges(gauges);
    EXPECT_NE(line.find("multiway="), std::string::npos) << line;
  }
}

// ---- Closed-form oracle ----

// Unlabelled graphs whose motif counts are known in closed form, so the
// expected answers come from no matcher and no configuration. A k-vertex
// query has n!/(n-k)! embeddings in K_n: every injective map keeps every
// edge. The wheel (a centre joined to every vertex of an n-cycle) has n
// triangles and n 4-cycles, each through the centre; the s x s grid has
// (s-1)^2 4-cycles and no triangle. Embeddings are motifs times the
// motif's automorphisms: 6 for a triangle, 8 for a 4-cycle.
Graph Wheel(uint32_t rim) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId i = 0; i < rim; ++i) {
    edges.push_back({0, 1 + i});
    edges.push_back({1 + i, 1 + (i + 1) % rim});
  }
  return testing::MakeGraph(std::vector<LabelId>(rim + 1, 0), edges,
                            "wheel");
}

Graph Grid(uint32_t side) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < side * side; ++v) {
    if (v % side + 1 < side) edges.push_back({v, v + 1});
    if (v + side < side * side) edges.push_back({v, v + side});
  }
  return testing::MakeGraph(std::vector<LabelId>(side * side, 0), edges,
                            "grid");
}

TEST(MultiwayTest, ClosedFormMotifCounts) {
  const Graph k12 = testing::MakeClique(std::vector<LabelId>(12, 0));
  const Graph k70 = testing::MakeClique(std::vector<LabelId>(70, 0));
  const Graph wheel = Wheel(80);
  const Graph grid = Grid(10);
  const Graph triangle = testing::MakeCycle({0, 0, 0});
  const Graph c4 = testing::MakeCycle({0, 0, 0, 0});
  const Graph k4 = testing::MakeClique({0, 0, 0, 0});
  // `hubs` pins which kernel path runs: none (K12, the grid's two-input
  // fast path), every input (K70) or exactly one (the wheel's centre).
  struct Case {
    const char* name;
    const Graph& g;
    size_t hubs;
    const Graph& q;
    uint64_t embeddings;
  };
  const Case cases[] = {
      {"K12 triangle", k12, 0, triangle, 12 * 11 * 10},
      {"K12 C4", k12, 0, c4, 12 * 11 * 10 * 9},
      {"K12 K4", k12, 0, k4, 12 * 11 * 10 * 9},
      {"K70 triangle", k70, 70, triangle, 70 * 69 * 68},
      {"W80 triangle", wheel, 1, triangle, 6 * 80},
      {"W80 C4", wheel, 1, c4, 8 * 80},
      {"grid C4", grid, 0, c4, 8 * 9 * 9},
      {"grid triangle", grid, 0, triangle, 0},
  };
  // Explicit options, so the hub split depends on no environment knob.
  CandidateIndexOptions io;
  io.bitset_degree_threshold = 64;
  io.bitset_memory_budget_bytes = 64 << 20;
  const char* const configs[] = {"index off", "index on, multiway off",
                                 "index on, multiway on"};
  for (const Case& c : cases) {
    const auto index = CandidateIndex::Build(c.g, io);
    ASSERT_EQ(index->num_hubs(), c.hubs) << c.name;
    for (int which = 0; which < 4; ++which) {
      for (int config = 0; config < 3; ++config) {
        auto m = MakeMatcher(which);
        m->set_candidate_index(config == 0 ? nullptr : index);
        ASSERT_TRUE(m->Prepare(c.g).ok());
        MatchOptions mo;
        mo.max_embeddings = 1u << 30;
        mo.multiway = config == 2;
        const MatchResult r = m->Match(c.q, mo);
        EXPECT_TRUE(r.complete) << c.name << ", " << m->name() << ", "
                                << configs[config];
        EXPECT_EQ(r.embedding_count, c.embeddings)
            << c.name << ", " << m->name() << ", " << configs[config];
        // Every query here is cyclic, so the kernel must engage wherever a
        // search gets past its first two vertices. Only VF2 stops earlier,
        // on the triangle-free grid: its look-ahead refutes each triangle
        // at depth 1.
        if (config == 2 && (c.embeddings > 0 || m->name() != "VF2")) {
          EXPECT_GT(r.stats.multiway_intersections, 0u)
              << c.name << ", " << m->name();
        }
      }
    }
  }
}

}  // namespace
}  // namespace psi
