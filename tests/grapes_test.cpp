#include "grapes/grapes.hpp"

#include <gtest/gtest.h>

#include "gen/dataset_gen.hpp"
#include "gen/query_gen.hpp"
#include "ggsx/ggsx.hpp"
#include "tests/test_util.hpp"
#include "vf2/vf2.hpp"

namespace psi {
namespace {

GraphDataset SmallDataset(uint64_t seed = 42, uint32_t graphs = 8) {
  gen::GraphGenLikeOptions o;
  o.num_graphs = graphs;
  o.avg_nodes = 40;
  o.density = 0.08;
  o.num_labels = 5;
  o.seed = seed;
  return gen::GraphGenLike(o);
}

// Ground truth: which dataset graphs contain the query (first-match VF2,
// uncapped)?
std::vector<uint32_t> TrueAnswers(const GraphDataset& ds, const Graph& q) {
  std::vector<uint32_t> out;
  MatchOptions mo;
  mo.max_embeddings = 1;
  for (uint32_t gid = 0; gid < ds.size(); ++gid) {
    if (Vf2Match(q, ds.graph(gid), mo).found()) out.push_back(gid);
  }
  return out;
}

TEST(GrapesFilterTest, NoFalseDismissals) {
  auto ds = SmallDataset();
  GrapesIndex index;
  ASSERT_TRUE(index.Build(ds).ok());
  auto w = gen::GenerateWorkload(ds, 15, 5, 7);
  ASSERT_TRUE(w.ok());
  for (const auto& query : *w) {
    auto candidates = index.Filter(query.graph);
    std::set<uint32_t> cand_ids;
    for (const auto& c : candidates) cand_ids.insert(c.graph_id);
    for (uint32_t truth : TrueAnswers(ds, query.graph)) {
      EXPECT_TRUE(cand_ids.count(truth))
          << "filter dropped graph " << truth << " which contains the query";
    }
    // The query's own source graph must survive filtering.
    EXPECT_TRUE(cand_ids.count(query.source_graph));
  }
}

TEST(GrapesEndToEndTest, DecisionMatchesGroundTruth) {
  auto ds = SmallDataset(43);
  GrapesIndex index;
  ASSERT_TRUE(index.Build(ds).ok());
  auto w = gen::GenerateWorkload(ds, 10, 6, 17);
  ASSERT_TRUE(w.ok());
  MatchOptions mo;
  mo.max_embeddings = 1;
  for (const auto& query : *w) {
    std::set<uint32_t> answered;
    for (const auto& cand : index.Filter(query.graph)) {
      auto r = index.VerifyCandidate(query.graph, cand, mo);
      ASSERT_TRUE(r.complete);
      if (r.found()) answered.insert(cand.graph_id);
    }
    auto truth = TrueAnswers(ds, query.graph);
    EXPECT_EQ(answered, std::set<uint32_t>(truth.begin(), truth.end()));
  }
}

TEST(GrapesComponentTest, ComponentsAreCachedPerGraph) {
  gen::PpiLikeOptions o;
  o.num_graphs = 3;
  o.avg_nodes = 120;
  o.seed = 3;
  auto ds = gen::PpiLike(o);
  GrapesIndex index;
  ASSERT_TRUE(index.Build(ds).ok());
  for (uint32_t gid = 0; gid < ds.size(); ++gid) {
    EXPECT_EQ(index.components(gid).size(), ds.graph(gid).NumComponents());
    uint32_t total = 0;
    for (const Graph& c : index.components(gid)) total += c.num_vertices();
    EXPECT_EQ(total, ds.graph(gid).num_vertices());
  }
}

TEST(GrapesComponentTest, LocationPruningRestrictsComponents) {
  // Two far-apart components with disjoint labels; a query on one side
  // must be verified only against that component.
  GraphDataset ds;
  GraphBuilder b;
  // Component A: triangle of label 1; component B: triangle of label 2.
  for (int i = 0; i < 3; ++i) b.AddVertex(1);
  for (int i = 0; i < 3; ++i) b.AddVertex(2);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  b.AddEdge(3, 5);
  auto g = b.Build("two_comp");
  ASSERT_TRUE(g.ok());
  ds.Add(std::move(g).value());
  GrapesIndex index;
  ASSERT_TRUE(index.Build(ds).ok());
  const Graph q = testing::MakeCycle({1, 1, 1});
  auto candidates = index.Filter(q);
  ASSERT_EQ(candidates.size(), 1u);
  ASSERT_EQ(candidates[0].components.size(), 1u);
  // Only the component of the label-1 triangle survives location pruning.
  const Graph& comp =
      index.components(0)[candidates[0].components[0]];
  EXPECT_EQ(comp.label(0), 1u);
}

TEST(GrapesMultithreadTest, ParallelBuildEqualsSequential) {
  auto ds = SmallDataset(44, 6);
  GrapesOptions seq_opts;
  GrapesIndex sequential(seq_opts);
  ASSERT_TRUE(sequential.Build(ds).ok());
  GrapesOptions par_opts;
  par_opts.num_threads = 4;
  GrapesIndex parallel(par_opts);
  ASSERT_TRUE(parallel.Build(ds).ok());

  auto w = gen::GenerateWorkload(ds, 8, 5, 19);
  ASSERT_TRUE(w.ok());
  for (const auto& query : *w) {
    auto c1 = sequential.Filter(query.graph);
    auto c2 = parallel.Filter(query.graph);
    ASSERT_EQ(c1.size(), c2.size());
    for (size_t i = 0; i < c1.size(); ++i) {
      EXPECT_EQ(c1[i].graph_id, c2[i].graph_id);
      EXPECT_EQ(c1[i].components, c2[i].components);
    }
  }
}

TEST(GrapesMultithreadTest, ParallelVerifyFindsMatches) {
  gen::PpiLikeOptions o;
  o.num_graphs = 2;
  o.avg_nodes = 150;
  o.seed = 6;
  auto ds = gen::PpiLike(o);
  GrapesOptions opts;
  opts.num_threads = 4;
  GrapesIndex index(opts);
  ASSERT_TRUE(index.Build(ds).ok());
  auto w = gen::GenerateWorkload(ds, 6, 5, 23);
  ASSERT_TRUE(w.ok());
  MatchOptions mo;
  mo.max_embeddings = 1;
  for (const auto& query : *w) {
    bool found_in_source = false;
    for (const auto& cand : index.Filter(query.graph)) {
      auto r = index.VerifyCandidate(query.graph, cand, mo);
      if (cand.graph_id == query.source_graph && r.found()) {
        found_in_source = true;
      }
    }
    EXPECT_TRUE(found_in_source);
  }
}

TEST(GrapesVerifyTest, EmptyQueryAgreesWithGgsx) {
  // The empty query has one embedding, the empty one, in every stored
  // graph — also in an empty graph, which has no component to verify.
  GraphDataset ds;
  ds.Add(testing::MakeGraph({}, {}));
  ds.Add(testing::MakePath({0, 1}));
  GrapesIndex grapes;
  ASSERT_TRUE(grapes.Build(ds).ok());
  GgsxIndex ggsx;
  ASSERT_TRUE(ggsx.Build(ds).ok());
  const Graph query = testing::MakeGraph({}, {});
  MatchOptions mo;
  mo.max_embeddings = 1;
  const auto candidates = grapes.Filter(query);
  ASSERT_EQ(candidates.size(), ds.size());
  for (const GrapesCandidate& c : candidates) {
    const MatchResult r = grapes.VerifyCandidate(query, c, mo);
    const MatchResult expected = ggsx.VerifyCandidate(query, c.graph_id, mo);
    ASSERT_TRUE(r.complete);
    ASSERT_TRUE(expected.complete);
    EXPECT_EQ(r.found(), expected.found()) << "graph " << c.graph_id;
    EXPECT_TRUE(r.found()) << "graph " << c.graph_id;
  }
}

TEST(GrapesVerifyTest, RespectsCancellation) {
  auto ds = SmallDataset(45, 2);
  GrapesIndex index;
  ASSERT_TRUE(index.Build(ds).ok());
  auto w = gen::GenerateWorkload(ds, 1, 6, 29);
  ASSERT_TRUE(w.ok());
  auto candidates = index.Filter((*w)[0].graph);
  ASSERT_FALSE(candidates.empty());
  StopToken stop;
  stop.RequestStop();
  MatchOptions mo;
  mo.max_embeddings = 1;
  mo.stop = &stop;
  mo.guard_period = 1;
  auto r = index.VerifyCandidate((*w)[0].graph, candidates[0], mo);
  EXPECT_FALSE(r.complete);
  EXPECT_TRUE(r.cancelled);
}

}  // namespace
}  // namespace psi
