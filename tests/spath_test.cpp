#include "spath/spath.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exec/executor.hpp"
#include "fault/failpoint.hpp"
#include "gen/dataset_gen.hpp"
#include "gen/query_gen.hpp"
#include "gen/rng.hpp"
#include "match/candidate_index.hpp"
#include "psi/engine.hpp"
#include "tests/test_util.hpp"
#include "vf2/vf2.hpp"

namespace psi {
namespace {

using testing::MakeCycle;
using testing::MakeGraph;
using testing::MakePath;

// Finds a signature entry by label, or nullptr.
const SPathMatcher::NsEntry* FindEntry(
    const std::vector<SPathMatcher::NsEntry>& sig, LabelId l) {
  for (const auto& e : sig) {
    if (e.label == l) return &e;
  }
  return nullptr;
}

TEST(SPathSignatureTest, DistanceWiseCumulativeCounts) {
  // Path 0(a)-1(b)-2(b)-3(c): from vertex 0, b at d=1 and d=2, c at d=3.
  SPathMatcher m;
  const Graph g = MakePath({0, 1, 1, 2});
  ASSERT_TRUE(m.Prepare(g).ok());
  const auto& sig = m.signature(0);
  const auto* b = FindEntry(sig, 1);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->cum[0], 1u);  // within distance 1
  EXPECT_EQ(b->cum[1], 2u);  // within distance 2
  EXPECT_EQ(b->cum[2], 2u);
  const auto* c = FindEntry(sig, 2);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->cum[1], 0u);
  EXPECT_EQ(c->cum[2], 1u);
  EXPECT_EQ(m.name(), "SPA");
}

TEST(SPathSignatureTest, RadiusLimitsEntries) {
  SPathOptions o;
  o.radius = 1;
  SPathMatcher m(o);
  const Graph g = MakePath({0, 1, 2});
  ASSERT_TRUE(m.Prepare(g).ok());
  // From vertex 0 with radius 1, label 2 (two hops away) is invisible.
  EXPECT_EQ(FindEntry(m.signature(0), 2), nullptr);
  EXPECT_NE(FindEntry(m.signature(0), 1), nullptr);
}

TEST(SPathDecomposeTest, CoversAllQueryEdges) {
  SPathMatcher m;
  const Graph g = gen::YeastLike(8, 2);
  ASSERT_TRUE(m.Prepare(g).ok());
  const Graph q = MakeGraph({0, 1, 2, 0, 1},
                            {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}});
  auto paths = m.DecomposeQuery(q);
  ASSERT_FALSE(paths.empty());
  std::set<std::pair<VertexId, VertexId>> covered;
  for (const auto& path : paths) {
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      VertexId a = path[i], b = path[i + 1];
      EXPECT_TRUE(q.HasEdge(a, b)) << "path uses a non-edge";
      if (a > b) std::swap(a, b);
      covered.insert({a, b});
    }
  }
  EXPECT_EQ(covered.size(), q.num_edges());
}

TEST(SPathDecomposeTest, PathsAreShortestPaths) {
  SPathMatcher m;
  const Graph g = gen::YeastLike(8, 2);
  ASSERT_TRUE(m.Prepare(g).ok());
  const Graph q = MakeCycle({0, 1, 2, 0, 1, 2});
  for (const auto& path : m.DecomposeQuery(q)) {
    ASSERT_GE(path.size(), 2u);
    EXPECT_LE(path.size(), 5u);  // max_path_length=4 edges
    // Consecutive distinct vertices, no repeats (simple shortest path).
    std::set<VertexId> s(path.begin(), path.end());
    EXPECT_EQ(s.size(), path.size());
  }
}

TEST(SPathMatchTest, DominanceFilterBlocksImpossibleVertices) {
  // Query centre needs two label-1 within distance 1; data has vertices
  // with only one.
  SPathMatcher m;
  const Graph g = MakeGraph({0, 1, 0, 1}, {{0, 1}, {2, 3}});
  ASSERT_TRUE(m.Prepare(g).ok());
  const Graph q = testing::MakeStar({0, 1, 1});
  MatchOptions all;
  all.max_embeddings = UINT64_MAX;
  auto r = m.Match(q, all);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.embedding_count, 0u);
}

TEST(SPathMatchTest, CountsOnAlternatingCycle) {
  SPathMatcher m;
  const Graph g = MakeCycle({0, 1, 0, 1, 0, 1});
  ASSERT_TRUE(m.Prepare(g).ok());
  MatchOptions all;
  all.max_embeddings = UINT64_MAX;
  auto r = m.Match(MakePath({1, 0, 1}), all);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.embedding_count, 6u);
}

TEST(SPathMatchTest, WordnetLikeDecision) {
  SPathMatcher m;
  const Graph g = gen::WordnetLike(/*scale=*/32, /*seed=*/8);
  ASSERT_TRUE(m.Prepare(g).ok());
  auto w = gen::GenerateWorkload(g, 4, 6, 55);
  ASSERT_TRUE(w.ok());
  MatchOptions decide;
  decide.max_embeddings = 1;
  for (const auto& query : *w) {
    EXPECT_TRUE(m.Match(query.graph, decide).found());
  }
}

TEST(SPathMatchTest, EmptyQueryOneEmbedding) {
  SPathMatcher m;
  const Graph g = MakePath({0, 0});
  ASSERT_TRUE(m.Prepare(g).ok());
  GraphBuilder b;
  auto q = b.Build();
  ASSERT_TRUE(q.ok());
  MatchOptions all;
  EXPECT_EQ(m.Match(*q, all).embedding_count, 1u);
}

TEST(BuildDistanceSignaturesTest, StandaloneMatchesMatcher) {
  const Graph g = MakeCycle({0, 1, 2, 3});
  auto sig = BuildDistanceSignatures(g, 4);
  ASSERT_EQ(sig.size(), g.num_vertices());
  SPathMatcher m;
  ASSERT_TRUE(m.Prepare(g).ok());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(sig[v].size(), m.signature(v).size());
    for (size_t i = 0; i < sig[v].size(); ++i) {
      EXPECT_EQ(sig[v][i].label, m.signature(v)[i].label);
      EXPECT_EQ(sig[v][i].cum, m.signature(v)[i].cum);
    }
  }
}

// ---- Signature build vs an independent oracle -------------------------

using Signatures = std::vector<std::vector<SPathMatcher::NsEntry>>;

// The oracle: one plain BFS per source with a distance array, then every
// other reached vertex counts for its label at its exact distance.
Signatures OracleSignatures(const Graph& g, uint32_t radius) {
  radius = std::min(radius, SPathMatcher::kMaxRadius);
  const uint32_t n = g.num_vertices();
  constexpr uint32_t kUnreached = static_cast<uint32_t>(-1);
  Signatures out(n);
  for (VertexId src = 0; src < n; ++src) {
    std::vector<uint32_t> dist(n, kUnreached);
    dist[src] = 0;
    std::queue<VertexId> queue;
    queue.push(src);
    while (!queue.empty()) {
      const VertexId v = queue.front();
      queue.pop();
      if (dist[v] == radius) continue;
      for (VertexId w : g.neighbors(v)) {
        if (dist[w] != kUnreached) continue;
        dist[w] = dist[v] + 1;
        queue.push(w);
      }
    }
    std::map<LabelId, std::array<uint32_t, SPathMatcher::kMaxRadius>> at;
    for (VertexId v = 0; v < n; ++v) {
      if (v == src || dist[v] == kUnreached) continue;
      ++at[g.label(v)][dist[v] - 1];  // value-initialised to zeros
    }
    for (const auto& [label, counts] : at) {
      SPathMatcher::NsEntry e;
      e.label = label;
      uint32_t acc = 0;
      for (uint32_t d = 0; d < SPathMatcher::kMaxRadius; ++d) {
        acc += counts[d];
        e.cum[d] = acc;
      }
      out[src].push_back(e);
    }
  }
  return out;
}

void ExpectSameSignatures(const Signatures& want, const Signatures& got,
                          const std::string& context) {
  ASSERT_EQ(want.size(), got.size()) << context;
  for (size_t v = 0; v < want.size(); ++v) {
    ASSERT_EQ(want[v].size(), got[v].size()) << context << " vertex " << v;
    for (size_t i = 0; i < want[v].size(); ++i) {
      ASSERT_EQ(want[v][i].label, got[v][i].label)
          << context << " vertex " << v << " entry " << i;
      ASSERT_EQ(want[v][i].cum, got[v][i].cum)
          << context << " vertex " << v << " label " << want[v][i].label;
    }
  }
}

// A random graph with isolated vertices, several components whose vertex
// ids interleave across 64-source batches, and sparse label ids up to
// 10^6.
Graph RandomSignatureGraph(uint32_t n, uint64_t seed) {
  static constexpr LabelId kLabels[] = {0, 3, 77, 4096, 999999, 1000000};
  Rng rng(seed);
  const auto components = static_cast<uint32_t>(rng.UniformInt(1, 4));
  std::vector<LabelId> labels(n);
  std::vector<uint32_t> component(n);
  std::vector<uint8_t> isolated(n);
  for (VertexId v = 0; v < n; ++v) {
    labels[v] = kLabels[rng.UniformInt(0, std::size(kLabels) - 1)];
    component[v] = static_cast<uint32_t>(rng.UniformInt(0, components - 1));
    isolated[v] = rng.UniformReal() < 0.1 ? 1 : 0;
  }
  std::set<std::pair<VertexId, VertexId>> edges;
  const uint64_t attempts = n * static_cast<uint64_t>(rng.UniformInt(1, 3));
  for (uint64_t i = 0; n > 1 && i < attempts; ++i) {
    auto u = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    auto v = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    if (u == v || isolated[u] || isolated[v] || component[u] != component[v]) {
      continue;
    }
    edges.insert({std::min(u, v), std::max(u, v)});
  }
  return testing::MakeGraph(
      labels, std::vector<std::pair<VertexId, VertexId>>(edges.begin(),
                                                         edges.end()));
}

// The executors every comparison runs on: pool widths 1, 2 and 4, and a
// queue of capacity 0 that rejects every helper.
std::vector<std::pair<std::string, ExecutorOptions>> SignatureExecutors() {
  return {{"width-1", ExecutorOptions{.num_threads = 1}},
          {"width-2", ExecutorOptions{.num_threads = 2}},
          {"width-4", ExecutorOptions{.num_threads = 4}},
          {"capacity-0",
           ExecutorOptions{.num_threads = 2, .queue_capacity = 0}}};
}

// Fault schedules that displace helpers: every one, or about half.
const char* const kHelperFaults[] = {
    "exec.admit=reject:1",  "exec.dequeue=shed:1",  "exec.run=throw:1",
    "exec.admit=reject:0.5", "exec.dequeue=shed:0.5", "exec.run=throw:0.5"};

// Compares the build with the oracle on every executor and, when faults
// are compiled in, under every helper fault schedule.
void ExpectOracleSignatures(const Graph& g, uint32_t radius,
                            const std::string& name) {
  const Signatures want = OracleSignatures(g, radius);
  const std::string context = name + " radius " + std::to_string(radius);
  ExpectSameSignatures(want, BuildDistanceSignatures(g, radius),
                       context + " shared pool");
  for (const auto& [label, options] : SignatureExecutors()) {
    Executor exec(options);
    ExpectSameSignatures(want, BuildDistanceSignatures(g, radius, &exec),
                         context + " " + label);
  }
  if (!FaultsCompiledIn()) return;
  Executor exec(ExecutorOptions{.num_threads = 2});
  for (const char* schedule : kHelperFaults) {
    FaultInjector inject(schedule, 41);
    ExpectSameSignatures(want, BuildDistanceSignatures(g, radius, &exec),
                         context + " " + schedule);
  }
}

TEST(BuildDistanceSignaturesTest, MatchesOracleOnRandomGraphs) {
  // Sizes straddle the 64-source batch edges; radius 5 clamps to 4.
  for (uint32_t n : {1u, 2u, 63u, 64u, 65u, 128u, 129u, 300u}) {
    for (uint32_t radius = 0; radius <= 5; ++radius) {
      const Graph g = RandomSignatureGraph(n, 1000 * n + radius);
      ExpectOracleSignatures(g, radius, "random n=" + std::to_string(n));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(BuildDistanceSignaturesTest, MatchesOracleOnWordnetHubs) {
  // Hubs give large balls: many sources of one batch share frontier
  // vertices at every level.
  const Graph g = gen::WordnetLike(16, 3);
  for (uint32_t radius : {1u, 4u}) {
    ExpectOracleSignatures(g, radius, "wordnet(16, 3)");
    if (HasFatalFailure()) return;
  }
}

TEST(BuildDistanceSignaturesTest, SmallGraphsSubmitNoTask) {
  // A graph of at most 64 vertices, which covers every query, is one
  // batch on the calling thread.
  Executor exec(ExecutorOptions{.num_threads = 2});
  const uint64_t before = exec.gauges().tasks_submitted;
  for (uint32_t n : {1u, 2u, 63u, 64u}) {
    BuildDistanceSignatures(RandomSignatureGraph(n, n), 4, &exec);
  }
  EXPECT_EQ(exec.gauges().tasks_submitted, before);
  // One vertex more is two batches: the build fans out.
  BuildDistanceSignatures(RandomSignatureGraph(65, 65), 4, &exec);
  EXPECT_GT(exec.gauges().tasks_submitted, before);
}

TEST(BuildDistanceSignaturesTest, QuerySideBuildsSubmitNoTask) {
  // The matcher builds its data signatures on the injected pool; every
  // Match() then builds the query's signatures inline.
  Executor exec(ExecutorOptions{.num_threads = 2});
  const Graph g = gen::YeastLike(8, 2);
  SPathMatcher m;
  m.set_executor(&exec);
  const uint64_t before_prepare = exec.gauges().tasks_submitted;
  ASSERT_TRUE(m.Prepare(g).ok());
  EXPECT_GT(exec.gauges().tasks_submitted, before_prepare);
  ExpectSameSignatures(OracleSignatures(g, 4),
                       [&] {
                         Signatures sig(g.num_vertices());
                         for (VertexId v = 0; v < g.num_vertices(); ++v) {
                           sig[v] = m.signature(v);
                         }
                         return sig;
                       }(),
                       "prepared matcher");
  auto w = gen::GenerateWorkload(g, 6, 6, 77);
  ASSERT_TRUE(w.ok());
  const uint64_t before_match = exec.gauges().tasks_submitted;
  MatchOptions all;
  all.max_embeddings = UINT64_MAX;
  for (const auto& query : *w) m.Match(query.graph, all);
  EXPECT_EQ(exec.gauges().tasks_submitted, before_match);
}

TEST(BuildDistanceSignaturesTest, EnginePreparesOnItsOwnPool) {
  // PsiEngine::Prepare hands its executor to every matcher, so sPath's
  // data-side build fans out on the engine's pool.
  Executor exec(ExecutorOptions{.num_threads = 2});
  PsiEngineOptions options;
  options.executor = &exec;
  PsiEngine engine(options);
  engine.AddMatcher(std::make_unique<SPathMatcher>());
  const Graph g = gen::YeastLike(8, 2);
  const uint64_t before = exec.gauges().tasks_submitted;
  ASSERT_TRUE(engine.Prepare(g).ok());
  EXPECT_GT(exec.gauges().tasks_submitted, before);
}

// ---- On-demand candidate checks ----------------------------------------
//
// sPath builds a full candidate list only for the query vertices its join
// enters without an anchor (no neighbour earlier in its order, as the
// first vertex of each component) and checks every other pair when the
// search reaches it. Every answer below is compared with VF2 with the
// index off.

MatchOptions CountAllWith(bool multiway) {
  MatchOptions o;
  o.max_embeddings = UINT64_MAX;
  o.multiway = multiway;
  return o;
}

uint64_t Vf2Count(const Graph& g, const Graph& q) {
  Vf2Matcher vf2;
  vf2.set_candidate_index(nullptr);
  EXPECT_TRUE(vf2.Prepare(g).ok());
  const MatchResult r = vf2.Match(q, CountAllWith(false));
  EXPECT_TRUE(r.complete);
  return r.embedding_count;
}

// sPath with the candidate index on or off, fixed before Prepare.
std::unique_ptr<SPathMatcher> PreparedSpa(const Graph& g, bool index,
                                          SPathOptions options = {}) {
  auto m = std::make_unique<SPathMatcher>(options);
  m->set_candidate_index(index ? CandidateIndex::Build(g) : nullptr);
  EXPECT_TRUE(m->Prepare(g).ok());
  return m;
}

// sPath's count under index on/off x multiway on/off equals VF2's, and
// every embedding it emits is valid.
void ExpectSpaAgreesWithVf2(const Graph& g, const Graph& q,
                            const std::string& context) {
  const uint64_t want = Vf2Count(g, q);
  for (bool index : {false, true}) {
    const auto m = PreparedSpa(g, index);
    for (bool multiway : {false, true}) {
      MatchOptions o = CountAllWith(multiway);
      uint64_t invalid = 0;
      o.sink = [&](const Embedding& e) {
        if (!IsValidEmbedding(q, g, e)) ++invalid;
        return true;
      };
      const MatchResult r = m->Match(q, o);
      EXPECT_TRUE(r.complete) << context;
      EXPECT_EQ(r.embedding_count, want)
          << context << " index=" << index << " multiway=" << multiway;
      EXPECT_EQ(invalid, 0u) << context;
    }
  }
}

// Three labelled triangles joined by bridges and a 4-cycle through a
// label-1 vertex.
Graph ComponentTestData() {
  return MakeGraph({0, 1, 2, 0, 1, 2, 0, 1, 2, 1, 0, 2},
                   {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3},
                    {6, 7}, {7, 8}, {8, 6}, {2, 3}, {5, 6}, {9, 0},
                    {9, 4}, {10, 9}, {11, 10}, {5, 11}});
}

TEST(SPathOnDemandTest, EveryComponentIsEnteredFromItsOwnList) {
  const Graph g = ComponentTestData();
  // A triangle and a disjoint edge.
  const Graph two = MakeGraph({0, 1, 2, 1, 0},
                              {{0, 1}, {1, 2}, {2, 0}, {3, 4}});
  ExpectSpaAgreesWithVf2(g, two, "triangle + edge");
  // The edge first by id: the component order does not follow ids.
  const Graph two_swapped = MakeGraph({1, 0, 0, 1, 2},
                                      {{0, 1}, {2, 3}, {3, 4}, {4, 2}});
  ExpectSpaAgreesWithVf2(g, two_swapped, "edge + triangle");
  // A path and an isolated vertex, which no path covers.
  const Graph isolated = MakeGraph({0, 1, 2, 1}, {{0, 1}, {1, 2}});
  ExpectSpaAgreesWithVf2(g, isolated, "path + isolated vertex");
  // Two edges and an isolated vertex: three components.
  const Graph three = MakeGraph({2, 0, 1, 2, 0}, {{0, 1}, {2, 3}});
  ExpectSpaAgreesWithVf2(g, three, "edge + edge + isolated vertex");
}

TEST(SPathOnDemandTest, VertexNothingCanTakeEndsBeforeTheSearch) {
  // Radius 1: the first vertex (0) sees only its neighbour, so it keeps a
  // candidate; vertex 2 needs neighbours labelled 1 and 3, which no data
  // vertex labelled 2 has. The probe for it finds nothing.
  const Graph g = MakeGraph({0, 1, 2, 2, 3}, {{0, 1}, {1, 2}, {3, 4}});
  const Graph q = MakePath({0, 1, 2, 3});
  SPathOptions radius1;
  radius1.radius = 1;
  for (bool index : {false, true}) {
    const auto m = PreparedSpa(g, index, radius1);
    ASSERT_NE(m->DecomposeQuery(q).front().front(), 2u)
        << "vertex 2 must be reached through an anchor";
    for (bool multiway : {false, true}) {
      const MatchResult r = m->Match(q, CountAllWith(multiway));
      EXPECT_TRUE(r.complete);
      EXPECT_EQ(r.embedding_count, 0u);
      EXPECT_EQ(r.stats.recursion_nodes, 0u) << "index=" << index;
    }
  }
  EXPECT_EQ(Vf2Count(g, q), 0u);
}

TEST(SPathOnDemandTest, RawAdjacencyRejectsWrongLabelNeighbours) {
  // Without the index the anchored source is the anchor image's whole
  // adjacency: the label-0 hub's neighbours carry labels 1, 2 and 3, and
  // only the check keeps the wrong ones out.
  const Graph g = MakeGraph({0, 1, 2, 3, 1, 2},
                            {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5},
                             {1, 2}, {4, 5}});
  ExpectSpaAgreesWithVf2(g, MakePath({0, 1}), "hub-leaf");
  ExpectSpaAgreesWithVf2(g, MakePath({1, 0, 2}), "leaf-hub-leaf");
  ExpectSpaAgreesWithVf2(g, testing::MakeCycle({0, 1, 2}), "triangle");
  ExpectSpaAgreesWithVf2(g, testing::MakeStar({0, 1, 2, 3}), "star");
}

TEST(SPathOnDemandTest, BackToBackCallsReuseNoStaleVerdict) {
  // One thread's calls share the leased stamp cells. The first call
  // rejects (vertex 1, data vertex 2) for its wrong label; the same query
  // again must reject it again, and a query that wants label 2 at vertex
  // 1 must accept it.
  const Graph g = MakeGraph({0, 1, 2}, {{0, 1}, {0, 2}});
  const Graph wants1 = MakePath({0, 1});
  const Graph wants2 = MakePath({0, 2});
  ASSERT_EQ(Vf2Count(g, wants1), 1u);
  ASSERT_EQ(Vf2Count(g, wants2), 1u);
  for (bool index : {false, true}) {
    const auto m = PreparedSpa(g, index);
    ASSERT_EQ(m->DecomposeQuery(wants1).front().front(), 0u);
    for (const Graph* q : {&wants1, &wants1, &wants2, &wants1, &wants2}) {
      EXPECT_EQ(m->Match(*q, CountAllWith(true)).embedding_count, 1u)
          << "index=" << index;
    }
  }
  // Across a wider sequence: each query's count equals VF2's whatever
  // ran before it on this thread. The cap one above VF2's count ends a
  // call that admits a wrong candidate at its first surplus embedding.
  const Graph data = gen::YeastLike(8, 2);
  auto w = gen::GenerateWorkload(data, 4, 8, 91);
  ASSERT_TRUE(w.ok());
  const auto m = PreparedSpa(data, /*index=*/false);
  std::vector<uint64_t> want;
  for (const auto& query : *w) want.push_back(Vf2Count(data, query.graph));
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < w->size(); ++i) {
      const size_t k = pass == 0 ? i : w->size() - 1 - i;
      MatchOptions o = CountAllWith(false);
      o.max_embeddings = want[k] + 1;
      EXPECT_EQ(m->Match((*w)[k].graph, o).embedding_count, want[k])
          << "pass " << pass << " query " << k;
    }
  }
}

}  // namespace
}  // namespace psi
