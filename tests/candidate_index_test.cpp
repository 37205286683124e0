// Unit + differential tests of the shared candidate-index matching kernel
// (match/candidate_index.hpp):
//
//  * Construction: label slices are exactly the label-filtered adjacency
//    in (degree, id) order (low-degree first, edge labels parallel) and
//    deterministic across rebuilds, the directory covers every neighbour,
//    NLF fingerprints cover every adjacent label, hub bitsets agree with
//    Graph::HasEdgeWithLabel and respect the degree threshold.
//  * Randomized differential harness: across seeded generated graphs and
//    workloads (PSI_TEST_SEEDS, default 100), all four matchers (VF2,
//    QuickSI, GraphQL, sPath) must return the identical embedding *set*
//    and counts with the index enabled vs. disabled — the kernel may only
//    change effort and enumeration order (slices run (degree, id), raw
//    adjacency runs plain id), never answers — including NFV racing
//    under kPool and the Grapes/GGSX FTV verification paths. The
//    byte-identical *stream* invariant is the split driver's
//    (tests/match_parallel_test.cpp): split on vs. off never reorders.
//  * Scratch reuse: repeated and concurrent GraphQL/sPath calls over the
//    epoch-stamped scratch stay correct (runs under TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "core/env.hpp"
#include "gen/dataset_gen.hpp"
#include "gen/query_gen.hpp"
#include "ggsx/ggsx.hpp"
#include "grapes/grapes.hpp"
#include "graphql/graphql.hpp"
#include "match/candidate_index.hpp"
#include "quicksi/quicksi.hpp"
#include "spath/spath.hpp"
#include "tests/test_util.hpp"
#include "vf2/vf2.hpp"
#include "workload/runner.hpp"

namespace psi {
namespace {

using psi::testing::BruteForceCount;
using psi::testing::MakeGraph;

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

// ---- Construction ----

TEST(CandidateIndexTest, SlicesAreLabelFilteredAdjacency) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    const Graph g = MakeDataGraph(seed);
    const auto idx = CandidateIndex::Build(g, CandidateIndexOptions{});
    const LabelId universe = g.LabelUniverseUpperBound();
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      size_t covered = 0;
      for (LabelId l = 0; l <= universe; ++l) {
        const auto slice = idx->Slice(v, l);
        // Expected: the neighbours of v labelled l in (degree, id) order
        // — low degree first, the graph's id order breaking ties — with
        // their edge labels riding along.
        std::vector<std::pair<VertexId, LabelId>> want;
        const auto nb = g.neighbors(v);
        const auto el = g.edge_labels(v);
        for (size_t i = 0; i < nb.size(); ++i) {
          if (g.label(nb[i]) == l) want.emplace_back(nb[i], el[i]);
        }
        std::stable_sort(want.begin(), want.end(),
                         [&](const auto& a, const auto& b) {
                           return g.degree(a.first) < g.degree(b.first);
                         });
        ASSERT_EQ(slice.size(), want.size()) << "v=" << v << " l=" << l;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(slice.vertices[i], want[i].first);
          EXPECT_EQ(slice.edge_labels[i], want[i].second);
          if (i > 0) {
            // Low-degree-first within the slice.
            EXPECT_LE(g.degree(slice.vertices[i - 1]),
                      g.degree(slice.vertices[i]));
          }
        }
        covered += slice.size();
      }
      EXPECT_EQ(covered, g.degree(v)) << "directory misses neighbours of "
                                      << v;
    }
  }
}

// Slice order is a pure function of the stored graph: rebuilding the
// index yields byte-identical slices (the split driver's deterministic
// emission depends on enumeration order being reproducible).
TEST(CandidateIndexTest, SlicesAreDeterministicAcrossRebuilds) {
  for (uint64_t seed : {3u, 7u}) {
    const Graph g = MakeDataGraph(seed);
    const auto a = CandidateIndex::Build(g, CandidateIndexOptions{});
    const auto b = CandidateIndex::Build(g, CandidateIndexOptions{});
    const LabelId universe = g.LabelUniverseUpperBound();
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (LabelId l = 0; l <= universe; ++l) {
        const auto sa = a->Slice(v, l);
        const auto sb = b->Slice(v, l);
        ASSERT_EQ(sa.size(), sb.size()) << "v=" << v << " l=" << l;
        for (size_t i = 0; i < sa.size(); ++i) {
          ASSERT_EQ(sa.vertices[i], sb.vertices[i]) << "v=" << v;
          ASSERT_EQ(sa.edge_labels[i], sb.edge_labels[i]) << "v=" << v;
        }
      }
    }
  }
}

TEST(CandidateIndexTest, NlfCoversAdjacentLabels) {
  const Graph g = MakeDataGraph(5);
  const auto idx = CandidateIndex::Build(g, CandidateIndexOptions{});
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    uint64_t want = 0;
    for (VertexId w : g.neighbors(v)) {
      want |= CandidateIndex::LabelBit(g.label(w));
      EXPECT_NE(idx->nlf(v) & CandidateIndex::LabelBit(g.label(w)), 0u);
    }
    EXPECT_EQ(idx->nlf(v), want);
  }
  // The query-side fingerprints use the same basis, so a vertex admits
  // itself as seen from an identical query.
  const auto qnlf = CandidateIndex::QueryNlf(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(idx->NlfAdmits(qnlf[v], g.degree(v), v));
  }
}

TEST(CandidateIndexTest, HubBitsetsRespectThresholdAndAgreeWithGraph) {
  // Star with a degree-6 hub plus a labelled tail.
  const Graph g = MakeGraph({0, 1, 1, 2, 2, 1, 2, 0},
                            {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6},
                             {6, 7}});
  CandidateIndexOptions o;
  o.bitset_degree_threshold = 4;
  const auto idx = CandidateIndex::Build(g, o);
  EXPECT_TRUE(idx->IsHub(0));     // degree 6
  EXPECT_FALSE(idx->IsHub(6));    // degree 2
  EXPECT_EQ(idx->num_hubs(), 1u);
  MatchStats stats;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(idx->EdgeCheck(u, v, 0, stats),
                g.HasEdgeWithLabel(u, v, 0))
          << u << "-" << v;
    }
  }
  // Hub-adjacent checks went through the bitset.
  EXPECT_GT(stats.bitset_edge_checks, 0u);

  CandidateIndexOptions off;
  off.bitset_degree_threshold = 0;
  EXPECT_EQ(CandidateIndex::Build(g, off)->num_hubs(), 0u);
}

TEST(CandidateIndexTest, BitsetMemoryBudgetKeepsHighestDegreeHubs) {
  // Three qualifying vertices (degrees 4, 3, 3), budget for exactly one
  // row: only the degree-4 vertex keeps a bitset, and edge checks still
  // agree with the graph for everything else (pure accelerator).
  const Graph g = MakeGraph({0, 0, 0, 0, 0, 1, 1},
                            {{0, 3}, {0, 4}, {0, 5}, {0, 6},
                             {1, 4}, {1, 5}, {1, 6},
                             {2, 4}, {2, 5}, {2, 6}});
  CandidateIndexOptions o;
  o.bitset_degree_threshold = 3;
  o.bitset_memory_budget_bytes = 8;  // one 64-bit word = one row here
  const auto idx = CandidateIndex::Build(g, o);
  EXPECT_EQ(idx->num_hubs(), 1u);
  EXPECT_TRUE(idx->IsHub(0));
  EXPECT_FALSE(idx->IsHub(1));
  EXPECT_FALSE(idx->IsHub(2));
  MatchStats stats;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(idx->EdgeCheck(u, v, 0, stats),
                g.HasEdgeWithLabel(u, v, 0));
    }
  }
}

TEST(CandidateIndexTest, EdgeCheckResolvesEdgeLabelsThroughHubs) {
  GraphBuilder b;
  for (LabelId l : {0u, 1u, 1u, 1u, 1u, 1u}) b.AddVertex(l);
  for (VertexId v = 1; v < 6; ++v) b.AddEdge(0, v, /*edge_label=*/v);
  const Graph g = std::move(b.Build("elabels")).value();
  CandidateIndexOptions o;
  o.bitset_degree_threshold = 3;
  const auto idx = CandidateIndex::Build(g, o);
  ASSERT_TRUE(idx->IsHub(0));
  MatchStats stats;
  EXPECT_TRUE(idx->EdgeCheck(0, 3, 3, stats));
  EXPECT_FALSE(idx->EdgeCheck(0, 3, 2, stats));  // bit set, label wrong
  EXPECT_FALSE(idx->EdgeCheck(0, 0, 0, stats));
}

// ---- Anchor selection: deterministic tie-break ----

TEST(CandidateIndexTest, PickAnchorImageBreaksCostTiesBySmallerImageId) {
  // Two potential anchors with byte-equal costs: v3 and v5, label 0, each
  // with exactly two label-1 neighbours (equal slices) and degree 2
  // (equal raw degrees). Whichever matched neighbour the query iterates
  // first, the anchor must land on the smaller image id — first-wins
  // would leak the query's neighbour order into the effort profile.
  const Graph g = MakeGraph({1, 1, 1, 0, 1, 0},
                            {{3, 0}, {3, 1}, {5, 2}, {5, 4}});
  const auto idx = CandidateIndex::Build(g, CandidateIndexOptions{});
  // Query: a path w0 - u - w2 (u = vertex 1), both endpoints matched.
  const Graph q = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}});
  for (bool swapped : {false, true}) {
    const VertexId img0 = swapped ? 3u : 5u;
    const VertexId img2 = swapped ? 5u : 3u;
    const auto image = [&](VertexId w) {
      if (w == 0) return img0;
      if (w == 2) return img2;
      return kInvalidVertex;
    };
    // Index arm: slice sizes tie at 2.
    EXPECT_EQ(CandidateIndex::PickAnchorImage(idx.get(), q, g, /*u=*/1,
                                              /*ul=*/1, image),
              3u)
        << "swapped=" << swapped;
    // No-index arm: raw degrees tie at 2.
    EXPECT_EQ(CandidateIndex::PickAnchorImage(nullptr, q, g, /*u=*/1,
                                              /*ul=*/1, image),
              3u)
        << "swapped=" << swapped;
  }
  // Unequal costs still win over the id tie-break: grow v5's label-1
  // slice and it loses to v3 outright, smaller id or not.
  const Graph g2 = MakeGraph({1, 1, 1, 0, 1, 0, 1},
                             {{3, 0}, {3, 1}, {5, 2}, {5, 4}, {5, 6}});
  const auto idx2 = CandidateIndex::Build(g2, CandidateIndexOptions{});
  const auto image2 = [](VertexId w) {
    if (w == 0) return VertexId{5};
    if (w == 2) return VertexId{3};
    return kInvalidVertex;
  };
  EXPECT_EQ(CandidateIndex::PickAnchorImage(idx2.get(), q, g2, 1, 1, image2),
            3u);
}

// ---- Differential: four matchers, index on vs. off ----

std::unique_ptr<Matcher> MakeMatcher(int which) {
  switch (which) {
    case 0: return std::make_unique<Vf2Matcher>();
    case 1: return std::make_unique<QuickSiMatcher>();
    case 2: return std::make_unique<GraphQlMatcher>();
    default: return std::make_unique<SPathMatcher>();
  }
}

struct Stream {
  std::vector<Embedding> embeddings;
  uint64_t count = 0;
  bool complete = false;
};

Stream CollectStream(const Matcher& m, const Graph& query) {
  Stream s;
  MatchOptions mo;
  // Truly uncapped: a capped run's embedding *set* depends on enumeration
  // order (the kernel's (degree, id) slices vs. raw id adjacency), so the
  // set comparison below is only meaningful when every search exhausts.
  mo.max_embeddings = 1u << 30;
  mo.sink = [&](const Embedding& e) {
    s.embeddings.push_back(e);
    return true;
  };
  const MatchResult r = m.Match(query, mo);
  s.count = r.embedding_count;
  s.complete = r.complete;
  return s;
}

TEST(CandidateIndexDifferentialTest, AllMatchersStreamIdenticalOnVsOff) {
  const int seeds = NumSeeds();
  for (int seed = 1; seed <= seeds; ++seed) {
    const Graph g = MakeDataGraph(static_cast<uint64_t>(seed));
    const auto queries = MakeQueries(g, static_cast<uint64_t>(seed));
    for (int which = 0; which < 4; ++which) {
      auto with = MakeMatcher(which);
      with->set_candidate_index(CandidateIndex::Build(g));
      ASSERT_TRUE(with->Prepare(g).ok());
      ASSERT_NE(with->candidate_index(), nullptr);
      auto without = MakeMatcher(which);
      without->set_candidate_index(nullptr);  // kernel pinned off
      ASSERT_TRUE(without->Prepare(g).ok());
      ASSERT_EQ(without->candidate_index(), nullptr);
      for (const auto& q : queries) {
        Stream a = CollectStream(*with, q.graph);
        Stream b = CollectStream(*without, q.graph);
        ASSERT_EQ(a.count, b.count)
            << with->name() << " count diverged, seed=" << seed;
        ASSERT_EQ(a.complete, b.complete);
        // The slices' (degree, id) order permutes enumeration relative to
        // the unindexed id order, so compare the embedding *sets*: these
        // runs are uncapped (every search exhausts), making the sorted
        // streams a faithful set comparison.
        std::sort(a.embeddings.begin(), a.embeddings.end());
        std::sort(b.embeddings.begin(), b.embeddings.end());
        ASSERT_EQ(a.embeddings, b.embeddings)
            << with->name() << " embedding set diverged, seed=" << seed;
      }
    }
  }
}

TEST(CandidateIndexDifferentialTest, IndexedCountsMatchBruteForce) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    gen::GraphGenLikeOptions o;
    o.num_graphs = 1;
    o.avg_nodes = 12;
    o.density = 0.2;
    o.num_labels = 3;
    o.seed = seed * 31 + 7;
    const Graph g = gen::GraphGenLike(o).graph(0);
    const auto queries = MakeQueries(g, seed);
    for (int which = 0; which < 4; ++which) {
      auto m = MakeMatcher(which);
      m->set_candidate_index(CandidateIndex::Build(g));
      ASSERT_TRUE(m->Prepare(g).ok());
      for (const auto& q : queries) {
        MatchOptions mo;
        mo.max_embeddings = 1u << 30;
        EXPECT_EQ(m->Match(q.graph, mo).embedding_count,
                  BruteForceCount(q.graph, g))
            << m->name() << " seed=" << seed;
      }
    }
  }
}

// The kernel must actually engage on label-rich graphs: slices enumerated,
// NLF rejecting, and effort (candidates_tried) no worse than unindexed.
TEST(CandidateIndexDifferentialTest, KernelReducesCandidatesTried) {
  uint64_t tried_on = 0, tried_off = 0, slices = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = MakeDataGraph(seed);
    const auto queries = MakeQueries(g, seed);
    for (int which = 0; which < 4; ++which) {
      auto with = MakeMatcher(which);
      with->set_candidate_index(CandidateIndex::Build(g));
      ASSERT_TRUE(with->Prepare(g).ok());
      auto without = MakeMatcher(which);
      without->set_candidate_index(nullptr);
      ASSERT_TRUE(without->Prepare(g).ok());
      for (const auto& q : queries) {
        MatchOptions mo;
        mo.max_embeddings = 5000;
        const MatchResult a = with->Match(q.graph, mo);
        const MatchResult b = without->Match(q.graph, mo);
        tried_on += a.stats.candidates_tried;
        tried_off += b.stats.candidates_tried;
        slices += a.stats.slice_candidates;
        EXPECT_EQ(b.stats.slice_candidates, 0u);
        EXPECT_EQ(b.stats.nlf_rejects, 0u);
      }
    }
  }
  EXPECT_GT(slices, 0u);
  EXPECT_LE(tried_on, tried_off);
}

// ---- Differential: NFV racing under kPool ----

TEST(CandidateIndexDifferentialTest, PoolRacedNfvAnswersIdenticalOnVsOff) {
  Executor pool(/*num_threads=*/4);
  const int seeds = std::max(1, NumSeeds() / 10);
  for (int seed = 1; seed <= seeds; ++seed) {
    const Graph g = MakeDataGraph(static_cast<uint64_t>(seed) + 50);
    const auto queries = MakeQueries(g, static_cast<uint64_t>(seed) + 50);
    const LabelStats stats = LabelStats::FromGraph(g);
    std::vector<std::vector<QueryRecord>> runs;
    for (int on = 0; on < 2; ++on) {
      GraphQlMatcher gql;
      SPathMatcher spa;
      std::shared_ptr<const CandidateIndex> idx =
          on != 0 ? CandidateIndex::Build(g) : nullptr;
      gql.set_candidate_index(idx);
      spa.set_candidate_index(idx);
      ASSERT_TRUE(gql.Prepare(g).ok());
      ASSERT_TRUE(spa.Prepare(g).ok());
      const Matcher* ms[] = {&gql, &spa};
      const Rewriting rw[] = {Rewriting::kOriginal, Rewriting::kDnd};
      const Portfolio p = MakeMultiAlgorithmPortfolio(ms, rw);
      RunnerOptions ro;
      ro.cap_ms = 5000.0;  // generous: kills would make records timing-y
      ro.max_embeddings = 1000;
      runs.push_back(RunWorkloadPsi(p, queries, stats, ro, RaceMode::kPool,
                                    &pool));
    }
    ASSERT_EQ(runs[0].size(), runs[1].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[0][i].matched, runs[1][i].matched) << "seed=" << seed;
      EXPECT_EQ(runs[0][i].embeddings, runs[1][i].embeddings)
          << "seed=" << seed;
      EXPECT_FALSE(runs[0][i].killed);
      EXPECT_FALSE(runs[1][i].killed);
    }
  }
}

// ---- Differential: Grapes / GGSX FTV verification ----

GraphDataset MakeCollection(uint64_t seed) {
  gen::GraphGenLikeOptions o;
  o.num_graphs = 10 + static_cast<uint32_t>(seed % 4) * 3;
  o.avg_nodes = 30 + static_cast<uint32_t>(seed % 5) * 6;
  o.density = 0.07;
  o.num_labels = 4 + static_cast<uint32_t>(seed % 6);
  o.seed = seed * 6007 + 3;
  return gen::GraphGenLike(o);
}

template <typename Record>
void ExpectSameFtvRecords(const std::vector<Record>& a,
                          const std::vector<Record>& b, uint64_t seed) {
  ASSERT_EQ(a.size(), b.size()) << "seed=" << seed;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].query_index, b[i].query_index) << "seed=" << seed;
    EXPECT_EQ(a[i].graph_id, b[i].graph_id) << "seed=" << seed;
    EXPECT_EQ(a[i].matched, b[i].matched)
        << "pair (" << a[i].query_index << ", " << a[i].graph_id
        << ") diverged, seed=" << seed;
    EXPECT_FALSE(a[i].killed) << "seed=" << seed;
    EXPECT_FALSE(b[i].killed) << "seed=" << seed;
  }
}

TEST(CandidateIndexDifferentialTest, GrapesFtvPoolPipelineIdenticalOnVsOff) {
  Executor pool(/*num_threads=*/4);
  const int seeds = std::max(1, NumSeeds() / 10);
  const Rewriting rewritings[] = {Rewriting::kIlf, Rewriting::kDnd};
  for (int seed = 1; seed <= seeds; ++seed) {
    const GraphDataset ds = MakeCollection(static_cast<uint64_t>(seed));
    auto w = gen::GenerateWorkload(ds, /*count=*/3, /*num_edges=*/4,
                                   seed * 50021);
    ASSERT_TRUE(w.ok());
    const LabelStats stats = LabelStats::FromGraphs(ds.graphs());
    RunnerOptions ro;
    ro.cap_ms = 5000.0;
    ro.max_embeddings = 1;
    std::vector<std::vector<FtvPairRecord>> runs;
    for (int on = 0; on < 2; ++on) {
      GrapesOptions go;
      go.filter_shards = 2;  // two range tries, filtered serially
      go.executor = &pool;
      go.candidate_index = on;
      GrapesIndex index(go);
      ASSERT_TRUE(index.Build(ds).ok());
      runs.push_back(RunFtvWorkloadPsiParallel(index, *w, rewritings, stats,
                                               ro, RaceMode::kPool, &pool));
    }
    ExpectSameFtvRecords(runs[0], runs[1], static_cast<uint64_t>(seed));
  }
}

TEST(CandidateIndexDifferentialTest, GgsxFtvVerificationIdenticalOnVsOff) {
  const int seeds = std::max(1, NumSeeds() / 10);
  for (int seed = 1; seed <= seeds; ++seed) {
    const GraphDataset ds = MakeCollection(static_cast<uint64_t>(seed) + 17);
    auto w = gen::GenerateWorkload(ds, /*count=*/3, /*num_edges=*/4,
                                   seed * 90001);
    ASSERT_TRUE(w.ok());
    RunnerOptions ro;
    ro.cap_ms = 5000.0;
    ro.max_embeddings = 1;
    std::vector<std::vector<FtvPairRecord>> runs;
    for (int on = 0; on < 2; ++on) {
      GgsxOptions go;
      go.candidate_index = on;
      GgsxIndex index(go);
      ASSERT_TRUE(index.Build(ds).ok());
      runs.push_back(RunFtvWorkload(index, *w, ro));
    }
    ExpectSameFtvRecords(runs[0], runs[1], static_cast<uint64_t>(seed));
  }
}

// ---- Scratch: reuse and concurrency ----

TEST(CandidateScratchTest, RepeatedCallsOnOneThreadStayCorrect) {
  const Graph g = MakeDataGraph(9);
  const auto queries = MakeQueries(g, 9);
  GraphQlMatcher gql;
  SPathMatcher spa;
  ASSERT_TRUE(gql.Prepare(g).ok());
  ASSERT_TRUE(spa.Prepare(g).ok());
  ASSERT_FALSE(queries.empty());
  MatchOptions mo;
  mo.max_embeddings = 5000;
  // First pass records the truth; 20 further rounds over the same (and
  // interleaved) queries must reproduce it bit-for-bit through the
  // epoch-stamped scratch.
  std::vector<uint64_t> want_gql, want_spa;
  for (const auto& q : queries) {
    want_gql.push_back(gql.Match(q.graph, mo).embedding_count);
    want_spa.push_back(spa.Match(q.graph, mo).embedding_count);
  }
  for (int round = 0; round < 20; ++round) {
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(gql.Match(queries[i].graph, mo).embedding_count,
                want_gql[i]);
      EXPECT_EQ(spa.Match(queries[i].graph, mo).embedding_count,
                want_spa[i]);
    }
  }
}

TEST(CandidateScratchTest, ConcurrentMatchesShareNothing) {
  const Graph g = MakeDataGraph(11);
  const auto queries = MakeQueries(g, 11);
  ASSERT_FALSE(queries.empty());
  GraphQlMatcher gql;
  ASSERT_TRUE(gql.Prepare(g).ok());
  MatchOptions mo;
  mo.max_embeddings = 5000;
  std::vector<uint64_t> want;
  for (const auto& q : queries) {
    want.push_back(gql.Match(q.graph, mo).embedding_count);
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          MatchOptions local;
          local.max_embeddings = 5000;
          EXPECT_EQ(gql.Match(queries[i].graph, local).embedding_count,
                    want[i]);
        }
      }
    });
  }
  for (auto& th : workers) th.join();
}

// Re-entrant Match from inside a sink leases a private scratch instead of
// corrupting the thread's one.
TEST(CandidateScratchTest, ReentrantMatchFromSinkIsSafe) {
  const Graph g = MakeDataGraph(13);
  const auto queries = MakeQueries(g, 13);
  ASSERT_FALSE(queries.empty());
  GraphQlMatcher gql;
  ASSERT_TRUE(gql.Prepare(g).ok());
  MatchOptions plain;
  plain.max_embeddings = 5000;
  const uint64_t want = gql.Match(queries[0].graph, plain).embedding_count;

  MatchOptions outer;
  outer.max_embeddings = 5000;
  bool inner_ran = false;
  uint64_t inner_count = 0;
  outer.sink = [&](const Embedding&) {
    if (!inner_ran) {
      inner_ran = true;
      MatchOptions inner;
      inner.max_embeddings = 5000;
      inner_count = gql.Match(queries[0].graph, inner).embedding_count;
    }
    return true;
  };
  const MatchResult outer_r = gql.Match(queries[0].graph, outer);
  EXPECT_EQ(outer_r.embedding_count, want);
  if (inner_ran) {
    EXPECT_EQ(inner_count, want);
  }
}

}  // namespace
}  // namespace psi
