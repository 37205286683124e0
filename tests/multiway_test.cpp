// Differential tests of the multiway (WCOJ) extension kernel
// (match/intersect.hpp + MatchOptions::{multiway, simd}):
//
//  * 100-seed differential harness (PSI_TEST_SEEDS): for every matcher
//    (VF2, QuickSI, GraphQL, sPath) under the candidate index, the
//    embedding *stream* must be byte-identical with multiway off (the
//    PR 5 enumerate-then-check path), multiway on at the scalar level,
//    and multiway on at the active SIMD level — serially and under the
//    root split. SIMD vs. scalar must also agree on every effort counter
//    except simd_galloped.
//  * Counter exactness: serial vs. split with multiway on report exactly
//    equal MatchStats, the new multiway counters included.
//  * Degraded pools: a capacity-0 reject-all pool and a shedding pool
//    (every range re-runs inline / displaced) stay byte-identical and
//    counter-exact with multiway on.
//  * Without an index the multiway request is ignored (the kernel needs
//    label slices); streams match the legacy path bit for bit.
//  * The new counters surface through MatchKernelStats -> PoolGauges and
//    FormatKernelGauges.

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

// multiway/simd ride the MatchOptions tri-states: -1 env default, 0 off.
Capture Serial(const Matcher& m, const Graph& q, int multiway, int simd) {
  Capture r;
  MatchOptions mo;
  mo.max_embeddings = 1u << 30;
  mo.multiway = multiway;
  mo.simd = simd;
  mo.sink = [&](const Embedding& e) {
    r.stream.push_back(e);
    return true;
  };
  r.result = m.Match(q, mo);
  return r;
}

Capture Split(const Matcher& m, const Graph& q, int multiway, int simd,
              size_t width, Executor* exec) {
  Capture r;
  MatchOptions mo;
  mo.max_embeddings = 1u << 30;
  mo.multiway = multiway;
  mo.simd = simd;
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
  EXPECT_EQ(a.simd_galloped, b.simd_galloped) << tag;
  EXPECT_EQ(a.intersection_shortcuts, b.intersection_shortcuts) << tag;
}

// SIMD vs. scalar: same work, different instructions — every counter
// equal except simd_galloped (0 at the scalar level by definition).
void ExpectSameStatsModuloSimd(const MatchStats& simd,
                               const MatchStats& scalar, const char* tag) {
  EXPECT_EQ(simd.recursion_nodes, scalar.recursion_nodes) << tag;
  EXPECT_EQ(simd.candidates_tried, scalar.candidates_tried) << tag;
  EXPECT_EQ(simd.nlf_rejects, scalar.nlf_rejects) << tag;
  EXPECT_EQ(simd.bitset_edge_checks, scalar.bitset_edge_checks) << tag;
  EXPECT_EQ(simd.slice_candidates, scalar.slice_candidates) << tag;
  EXPECT_EQ(simd.multiway_intersections, scalar.multiway_intersections)
      << tag;
  EXPECT_EQ(simd.intersection_shortcuts, scalar.intersection_shortcuts)
      << tag;
  EXPECT_EQ(scalar.simd_galloped, 0u) << tag;
}

// ---- Differential: multiway on/off x SIMD on/off, serial + split ----

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
      const Capture legacy = Serial(*m, q.graph, /*multiway=*/0, 0);
      const Capture scalar = Serial(*m, q.graph, /*multiway=*/1, /*simd=*/0);
      const Capture simd = Serial(*m, q.graph, /*multiway=*/1, /*simd=*/-1);
      ExpectSameStream(scalar, legacy, m->name().data());
      ExpectSameStream(simd, legacy, m->name().data());
      ExpectSameStatsModuloSimd(simd.result.stats, scalar.result.stats,
                                m->name().data());
      total_intersections += simd.result.stats.multiway_intersections;
      // Root split, multiway on: still the legacy stream, and exactly the
      // serial multiway counters.
      const Capture split = Split(*m, q.graph, /*multiway=*/1, /*simd=*/-1,
                                  width, &pool);
      ExpectSameStream(split, legacy, m->name().data());
      ExpectSameStats(split.result.stats, simd.result.stats,
                      m->name().data());
      // And multiway off under the same split: still the legacy stream.
      const Capture split_off = Split(*m, q.graph, /*multiway=*/0, 0, width,
                                      &pool);
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
    const Capture serial = Serial(m, q.graph, /*multiway=*/1, /*simd=*/-1);
    const Capture on = Split(m, q.graph, 1, -1, 4, &pool);
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
    const Capture serial = Serial(m, q.graph, /*multiway=*/1, /*simd=*/-1);
    const Capture on = Split(m, q.graph, 1, -1, 8, &pool);
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
      const Capture off = Serial(*m, q.graph, /*multiway=*/0, 0);
      const Capture on = Serial(*m, q.graph, /*multiway=*/1, /*simd=*/-1);
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
      const Capture c = Serial(*m, q, /*multiway=*/1, /*simd=*/-1);
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

}  // namespace
}  // namespace psi
