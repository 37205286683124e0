// Cross-engine integration suite: VF2, QuickSI, GraphQL and sPath must all
// agree with a brute-force oracle (and hence with each other) on randomized
// graphs, under rewritings, and on planted queries. This is the library's
// strongest correctness property: four independently implemented engines
// with different index structures and orders converging on identical
// embedding counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string_view>
#include <vector>

#include "core/fnv.hpp"
#include "gen/dataset_gen.hpp"
#include "gen/query_gen.hpp"
#include "gen/rng.hpp"
#include "graphql/graphql.hpp"
#include "match/candidate_index.hpp"
#include "quicksi/quicksi.hpp"
#include "rewrite/rewrite.hpp"
#include "spath/spath.hpp"
#include "tests/test_util.hpp"
#include "vf2/vf2.hpp"

namespace psi {
namespace {

using testing::BruteForceCount;

std::vector<std::unique_ptr<Matcher>> AllEngines(const Graph& data) {
  std::vector<std::unique_ptr<Matcher>> out;
  out.push_back(std::make_unique<Vf2Matcher>());
  out.push_back(std::make_unique<QuickSiMatcher>());
  out.push_back(std::make_unique<GraphQlMatcher>());
  out.push_back(std::make_unique<SPathMatcher>());
  for (auto& m : out) {
    EXPECT_TRUE(m->Prepare(data).ok()) << m->name();
  }
  return out;
}

MatchOptions CountAll() {
  MatchOptions o;
  o.max_embeddings = UINT64_MAX;
  return o;
}

struct CrossParam {
  uint64_t seed;
  uint32_t data_n;
  uint32_t data_m;
  uint32_t labels;
  uint32_t query_edges;
};

class EnginesAgreeWithOracle : public ::testing::TestWithParam<CrossParam> {};

TEST_P(EnginesAgreeWithOracle, CountsMatchBruteForce) {
  const auto p = GetParam();
  gen::LargeGraphOptions o;
  o.num_vertices = p.data_n;
  o.num_edges = p.data_m;
  o.num_labels = p.labels;
  o.label_zipf_s = 0.9;
  o.seed = p.seed;
  const Graph g = gen::LargeGraph(o);
  auto engines = AllEngines(g);
  auto w = gen::GenerateWorkload(g, 4, p.query_edges, p.seed + 1000);
  ASSERT_TRUE(w.ok());
  for (const auto& query : *w) {
    const uint64_t oracle = BruteForceCount(query.graph, g);
    for (const auto& m : engines) {
      auto r = m->Match(query.graph, CountAll());
      ASSERT_TRUE(r.complete) << m->name();
      EXPECT_EQ(r.embedding_count, oracle)
          << m->name() << " seed=" << p.seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnginesAgreeWithOracle,
    ::testing::Values(CrossParam{101, 14, 30, 3, 4},
                      CrossParam{102, 16, 40, 4, 5},
                      CrossParam{103, 18, 36, 2, 4},
                      CrossParam{104, 20, 50, 5, 5},
                      CrossParam{105, 22, 44, 3, 6},
                      CrossParam{106, 24, 60, 6, 5},
                      CrossParam{107, 26, 52, 4, 6},
                      CrossParam{108, 28, 70, 5, 6}));

class EnginesInvariantUnderRewriting
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnginesInvariantUnderRewriting, AllRewritingsSameCount) {
  const uint64_t seed = GetParam();
  gen::LargeGraphOptions o;
  o.num_vertices = 40;
  o.num_edges = 110;
  o.num_labels = 4;
  o.seed = seed;
  const Graph g = gen::LargeGraph(o);
  const LabelStats stats = LabelStats::FromGraph(g);
  auto engines = AllEngines(g);
  auto w = gen::GenerateWorkload(g, 2, 6, seed + 2000);
  ASSERT_TRUE(w.ok());
  for (const auto& query : *w) {
    for (const auto& m : engines) {
      const uint64_t base =
          m->Match(query.graph, CountAll()).embedding_count;
      for (Rewriting r : AllRewritings()) {
        auto rq = RewriteQuery(query.graph, r, stats);
        ASSERT_TRUE(rq.ok());
        EXPECT_EQ(m->Match(rq->graph, CountAll()).embedding_count, base)
            << m->name() << " under " << ToString(r);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EnginesInvariantUnderRewriting,
                         ::testing::Values(201, 202, 203, 204));

// Every engine must find a planted query in realistic-sized stored graphs
// (decision correctness at scale where brute force is impossible).
class EnginesFindPlantedQueries : public ::testing::TestWithParam<uint32_t> {
};

TEST_P(EnginesFindPlantedQueries, DecisionOnYeastLike) {
  const uint32_t query_edges = GetParam();
  const Graph g = gen::YeastLike(/*scale=*/4, /*seed=*/77);
  auto engines = AllEngines(g);
  auto w = gen::GenerateWorkload(g, 5, query_edges, 4242);
  ASSERT_TRUE(w.ok());
  MatchOptions decide;
  decide.max_embeddings = 1;
  for (const auto& query : *w) {
    for (const auto& m : engines) {
      auto r = m->Match(query.graph, decide);
      EXPECT_TRUE(r.found()) << m->name() << " q" << query_edges;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EnginesFindPlantedQueries,
                         ::testing::Values(4, 8, 12, 16));

// Sink-captured embeddings from every engine must validate.
TEST(EnginesEmitValidEmbeddings, OnHumanLikeSample) {
  const Graph g = gen::HumanLike(/*scale=*/8, /*seed=*/5);
  auto engines = AllEngines(g);
  auto w = gen::GenerateWorkload(g, 3, 6, 99);
  ASSERT_TRUE(w.ok());
  for (const auto& query : *w) {
    for (const auto& m : engines) {
      MatchOptions o;
      o.max_embeddings = 50;
      size_t validated = 0;
      o.sink = [&](const Embedding& e) {
        EXPECT_TRUE(IsValidEmbedding(query.graph, g, e)) << m->name();
        ++validated;
        return true;
      };
      auto r = m->Match(query.graph, o);
      EXPECT_EQ(validated, r.embedding_count) << m->name();
    }
  }
}

// All engines respect cancellation and deadlines.
TEST(EnginesRespectInterrupts, CancelAndDeadline) {
  // Unlabelled dense graph makes counting all embeddings intractable.
  const Graph g = testing::MakeClique(std::vector<LabelId>(32, 0));
  const Graph q = testing::MakeClique(std::vector<LabelId>(7, 0));
  auto engines = AllEngines(g);
  for (const auto& m : engines) {
    {
      StopToken stop;
      stop.RequestStop();
      MatchOptions o = CountAll();
      o.stop = &stop;
      o.guard_period = 1;
      auto r = m->Match(q, o);
      EXPECT_TRUE(r.cancelled) << m->name();
      EXPECT_FALSE(r.complete) << m->name();
    }
    {
      MatchOptions o = CountAll();
      o.deadline = Deadline::AfterMillis(2);
      o.guard_period = 16;
      auto r = m->Match(q, o);
      EXPECT_TRUE(r.timed_out) << m->name();
    }
  }
}

// The secondary stop token interrupts searches just like the primary.
TEST(EnginesRespectInterrupts, SecondaryToken) {
  const Graph g = testing::MakeClique(std::vector<LabelId>(28, 0));
  const Graph q = testing::MakeClique(std::vector<LabelId>(6, 0));
  auto engines = AllEngines(g);
  for (const auto& m : engines) {
    StopToken stop;
    stop.RequestStop();
    MatchOptions o = CountAll();
    o.stop2 = &stop;
    o.guard_period = 1;
    auto r = m->Match(q, o);
    EXPECT_TRUE(r.cancelled) << m->name();
  }
}

// Embedding cap semantics shared by all engines.
TEST(EnginesHonourCap, MaxEmbeddings) {
  const Graph g = testing::MakeClique(std::vector<LabelId>(10, 0));
  const Graph q = testing::MakePath({0, 0, 0});
  auto engines = AllEngines(g);
  for (const auto& m : engines) {
    MatchOptions o;
    o.max_embeddings = 7;
    auto r = m->Match(q, o);
    EXPECT_EQ(r.embedding_count, 7u) << m->name();
    EXPECT_TRUE(r.complete) << m->name();
  }
}

// Golden counters: absolute embedding counts, stream hashes and summed
// MatchStats per matcher x index on/off x multiway on/off. Every other
// counter check in the suite is relative (one configuration against
// another), so a change that moves a counter the same way everywhere —
// e.g. bumping candidates_tried before instead of after an injectivity
// check — passes all of them; this one does not. The index is built with
// explicit options and multiway is set per row, so the values depend on
// no environment knob. The graphs carry cycles (triangle closure), hubs
// of degree >= 64 and, in two of three, edge labels, so the multiway,
// bitset and shortcut counters are all exercised. sPath's nlf_rejects
// counts only its Prepare scans (in full for a vertex with no neighbour
// earlier in its order, a probe for every other vertex); its on-demand
// checks in Admit count none.
struct GoldenRow {
  const char* matcher;
  bool index;
  bool multiway;
  uint64_t embeddings;
  uint64_t stream_hash;
  uint64_t stats[7];  // MatchStats fields in declaration order
};

constexpr GoldenRow kGolden[] = {
    {"VF2", false, false, 122323, 0x40cc92811f8f1ba7ull,
     {46337, 1165031, 0, 0, 0, 0, 0}},
    {"VF2", false, true, 122323, 0x40cc92811f8f1ba7ull,
     {46337, 1165031, 0, 0, 0, 0, 0}},
    {"VF2", true, false, 122323, 0xfac8b9c07ef0d13dull,
     {42486, 247810, 6894, 156484, 267469, 0, 0}},
    {"VF2", true, true, 122323, 0xfac8b9c07ef0d13dull,
     {42486, 218242, 3650, 121964, 267469, 20717, 5135}},
    {"QSI", false, false, 122323, 0x297ad7cdd450b3ceull,
     {18850, 690037, 0, 0, 0, 0, 0}},
    {"QSI", false, true, 122323, 0x297ad7cdd450b3ceull,
     {18850, 690037, 0, 0, 0, 0, 0}},
    {"QSI", true, false, 122323, 0x060680c081a6e862ull,
     {18803, 278318, 5211, 29182, 283137, 0, 0}},
    {"QSI", true, true, 122323, 0x060680c081a6e862ull,
     {18803, 191678, 447, 47269, 221954, 8272, 1622}},
    {"GQL", false, false, 122323, 0xcbf1118549aafd4bull,
     {17699, 534153, 0, 0, 0, 0, 0}},
    {"GQL", false, true, 122323, 0xcbf1118549aafd4bull,
     {17699, 534153, 0, 0, 0, 0, 0}},
    {"GQL", true, false, 122323, 0x12cc2ae86ddf2a30ull,
     {17861, 219201, 1122, 135726, 219057, 0, 0}},
    {"GQL", true, true, 122323, 0x12cc2ae86ddf2a30ull,
     {17861, 188979, 1122, 130845, 219057, 8283, 1623}},
    {"SPA", false, false, 122323, 0x6622e334c54ef89dull,
     {59026, 898176, 0, 0, 0, 0, 0}},
    {"SPA", false, true, 122323, 0x6622e334c54ef89dull,
     {59026, 898176, 0, 0, 0, 0, 0}},
    {"SPA", true, false, 122323, 0x39b8237bb45edeb0ull,
     {59252, 345600, 221, 155492, 334664, 0, 0}},
    {"SPA", true, true, 122323, 0x39b8237bb45edeb0ull,
     {59252, 240786, 221, 104551, 334664, 45197, 17117}},
};

TEST(EnginesGoldenCounters, AbsoluteCountersArePinned) {
  struct Spec {
    uint64_t seed;
    uint32_t edge_labels;
  };
  std::vector<Graph> graphs;
  for (const Spec s : {Spec{31, 0}, Spec{32, 2}, Spec{33, 3}}) {
    gen::LargeGraphOptions o;
    o.num_vertices = 260;
    o.num_edges = 1300;
    o.num_labels = 4;
    o.label_zipf_s = 0.8;
    o.degree_pareto_alpha = 1.9;
    o.triangle_fraction = 0.4;
    o.num_edge_labels = s.edge_labels;
    o.seed = s.seed;
    graphs.push_back(gen::LargeGraph(o));
  }
  // Per graph: five induced subgraphs of 4..6 vertices grown from seeded
  // start vertices. Triangle closure makes most of them cyclic — only a
  // cycle gives a connected matching order two matched backward
  // neighbours — and hub neighbourhoods make some of them dense.
  std::vector<std::vector<Graph>> queries(graphs.size());
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    Rng rng(500 + gi);
    for (uint32_t k : {4u, 4u, 5u, 5u, 6u}) {
      std::vector<VertexId> picked;
      while (picked.size() < k) {
        if (picked.empty()) {
          picked.push_back(static_cast<VertexId>(
              rng.UniformInt(0, g.num_vertices() - 1)));
        }
        std::vector<VertexId> frontier;
        for (VertexId u : picked) {
          for (VertexId w : g.neighbors(u)) {
            if (std::find(picked.begin(), picked.end(), w) == picked.end()) {
              frontier.push_back(w);
            }
          }
        }
        std::sort(frontier.begin(), frontier.end());
        frontier.erase(std::unique(frontier.begin(), frontier.end()),
                       frontier.end());
        if (frontier.empty()) {  // component exhausted: start over
          picked.clear();
          continue;
        }
        picked.push_back(frontier[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(frontier.size()) - 1))]);
      }
      GraphBuilder b(k);
      for (VertexId v : picked) b.AddVertex(g.label(v));
      for (VertexId i = 0; i < k; ++i) {
        for (VertexId j = i + 1; j < k; ++j) {
          if (g.HasEdge(picked[i], picked[j])) {
            b.AddEdge(i, j, g.EdgeLabel(picked[i], picked[j]));
          }
        }
      }
      auto q = b.Build("induced");
      ASSERT_TRUE(q.ok());
      queries[gi].push_back(std::move(q).value());
    }
  }
  CandidateIndexOptions io;
  io.bitset_degree_threshold = 64;
  io.bitset_memory_budget_bytes = 64 << 20;

  std::vector<GoldenRow> got;
  for (const char* name : {"VF2", "QSI", "GQL", "SPA"}) {
    for (bool index : {false, true}) {
      for (bool multiway : {false, true}) {
        GoldenRow row{name, index, multiway, 0, kFnv1aOffset, {}};
        MatchStats sum;
        for (size_t gi = 0; gi < graphs.size(); ++gi) {
          const Graph& g = graphs[gi];
          std::unique_ptr<Matcher> m;
          const std::string_view n = name;
          if (n == "VF2") m = std::make_unique<Vf2Matcher>();
          if (n == "QSI") m = std::make_unique<QuickSiMatcher>();
          if (n == "GQL") m = std::make_unique<GraphQlMatcher>();
          if (n == "SPA") m = std::make_unique<SPathMatcher>();
          m->set_candidate_index(index ? CandidateIndex::Build(g, io)
                                       : nullptr);
          ASSERT_TRUE(m->Prepare(g).ok());
          for (const Graph& query : queries[gi]) {
            MatchOptions mo;
            mo.max_embeddings = 20000;
            mo.multiway = multiway;
            mo.sink = [&](const Embedding& e) {
              Fnv1aMix(e.size(), &row.stream_hash);
              for (VertexId v : e) Fnv1aMix(v, &row.stream_hash);
              return true;
            };
            const MatchResult r = m->Match(query, mo);
            ASSERT_TRUE(r.complete) << name;
            row.embeddings += r.embedding_count;
            sum.Add(r.stats);
          }
        }
        row.stats[0] = sum.recursion_nodes;
        row.stats[1] = sum.candidates_tried;
        row.stats[2] = sum.nlf_rejects;
        row.stats[3] = sum.bitset_edge_checks;
        row.stats[4] = sum.slice_candidates;
        row.stats[5] = sum.multiway_intersections;
        row.stats[6] = sum.intersection_shortcuts;
        got.push_back(row);
      }
    }
  }

  // On any mismatch, print the measured table in initializer form.
  bool same = std::size(kGolden) == got.size();
  for (size_t i = 0; same && i < got.size(); ++i) {
    const GoldenRow& a = got[i];
    const GoldenRow& b = kGolden[i];
    same = std::string_view(a.matcher) == b.matcher && a.index == b.index &&
           a.multiway == b.multiway && a.embeddings == b.embeddings &&
           a.stream_hash == b.stream_hash &&
           std::equal(std::begin(a.stats), std::end(a.stats),
                      std::begin(b.stats));
  }
  if (!same) {
    for (const GoldenRow& r : got) {
      std::printf("    {\"%s\", %s, %s, %" PRIu64 ", 0x%016" PRIx64 "ull,\n"
                  "     {",
                  r.matcher, r.index ? "true" : "false",
                  r.multiway ? "true" : "false", r.embeddings, r.stream_hash);
      for (int k = 0; k < 7; ++k) {
        std::printf("%" PRIu64 "%s", r.stats[k], k < 6 ? ", " : "}},\n");
      }
    }
  }
  EXPECT_TRUE(same) << "golden counters moved (measured table above)";
}

// No-match cases complete quickly and report zero.
TEST(EnginesRejectImpossible, MissingLabelAndTooLarge) {
  const Graph g = gen::YeastLike(/*scale=*/8, /*seed=*/3);
  auto engines = AllEngines(g);
  const Graph missing = testing::MakePath({100000, 100001});
  const Graph too_big = testing::MakeClique(std::vector<LabelId>(12, 0));
  for (const auto& m : engines) {
    auto r1 = m->Match(missing, CountAll());
    EXPECT_TRUE(r1.complete) << m->name();
    EXPECT_EQ(r1.embedding_count, 0u) << m->name();
    auto r2 = m->Match(too_big, CountAll());
    EXPECT_TRUE(r2.complete) << m->name();
    EXPECT_EQ(r2.embedding_count, 0u) << m->name();
  }
}

}  // namespace
}  // namespace psi
