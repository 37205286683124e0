// Edge-label support (paper Definition 1 labels edges as well as
// vertices): graph core, every matching engine, rewritings, query
// extraction and the TVE format must all respect edge labels.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/graph_algos.hpp"
#include "gen/dataset_gen.hpp"
#include "gen/query_gen.hpp"
#include "graphql/graphql.hpp"
#include "io/graph_io.hpp"
#include "quicksi/quicksi.hpp"
#include "rewrite/rewrite.hpp"
#include "spath/spath.hpp"
#include "tests/test_util.hpp"
#include "vf2/vf2.hpp"

namespace psi {
namespace {

// Triangle with distinct edge labels 5/6/7.
Graph LabelledTriangle() {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(0);
  b.AddVertex(0);
  b.AddEdge(0, 1, 5);
  b.AddEdge(1, 2, 6);
  b.AddEdge(0, 2, 7);
  return std::move(*b.Build("tri"));
}

TEST(EdgeLabelGraphTest, AccessorsAndFlags) {
  const Graph g = LabelledTriangle();
  EXPECT_TRUE(g.has_edge_labels());
  EXPECT_EQ(g.EdgeLabel(0, 1), 5u);
  EXPECT_EQ(g.EdgeLabel(1, 0), 5u);
  EXPECT_EQ(g.EdgeLabel(2, 1), 6u);
  EXPECT_EQ(g.EdgeLabel(0, 2), 7u);
  EXPECT_EQ(g.EdgeLabel(0, 0), Graph::kInvalidEdgeLabel);
  EXPECT_TRUE(g.HasEdgeWithLabel(0, 1, 5));
  EXPECT_FALSE(g.HasEdgeWithLabel(0, 1, 6));
  const Graph plain = testing::MakePath({0, 0});
  EXPECT_FALSE(plain.has_edge_labels());
  EXPECT_TRUE(plain.HasEdgeWithLabel(0, 1, 0));
  EXPECT_FALSE(plain.HasEdgeWithLabel(0, 1, 3));
}

TEST(EdgeLabelGraphTest, EdgeLabelSpansParallelToNeighbors) {
  const Graph g = LabelledTriangle();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto adj = g.neighbors(v);
    auto el = g.edge_labels(v);
    ASSERT_EQ(adj.size(), el.size());
    for (size_t i = 0; i < adj.size(); ++i) {
      EXPECT_EQ(el[i], g.EdgeLabel(v, adj[i]));
    }
  }
}

TEST(EdgeLabelGraphTest, IdenticalToSeesEdgeLabels) {
  GraphBuilder b1, b2;
  for (int i = 0; i < 2; ++i) {
    b1.AddVertex(0);
    b2.AddVertex(0);
  }
  b1.AddEdge(0, 1, 1);
  b2.AddEdge(0, 1, 2);
  EXPECT_FALSE(b1.Build()->IdenticalTo(*b2.Build()));
}

TEST(EdgeLabelGraphTest, PermutationAndSubgraphPreserveEdgeLabels) {
  const Graph g = LabelledTriangle();
  auto p = ApplyPermutation(g, std::vector<VertexId>{2, 0, 1});
  ASSERT_TRUE(p.ok());
  // Old edge (0,1,label 5) becomes (2,0).
  EXPECT_EQ(p->EdgeLabel(2, 0), 5u);
  EXPECT_EQ(p->EdgeLabel(0, 1), 6u);
  std::vector<VertexId> keep = {0, 1};
  auto s = InducedSubgraph(g, keep);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->EdgeLabel(0, 1), 5u);
}

TEST(EdgeLabelMatchTest, AllEnginesRespectEdgeLabels) {
  const Graph g = LabelledTriangle();
  // Query: single edge with label 6 — exactly one data edge matches,
  // in two orientations.
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(0);
  qb.AddEdge(0, 1, 6);
  const Graph q = std::move(*qb.Build());

  std::vector<std::unique_ptr<Matcher>> engines;
  engines.push_back(std::make_unique<Vf2Matcher>());
  engines.push_back(std::make_unique<QuickSiMatcher>());
  engines.push_back(std::make_unique<GraphQlMatcher>());
  engines.push_back(std::make_unique<SPathMatcher>());
  MatchOptions all;
  all.max_embeddings = UINT64_MAX;
  for (auto& m : engines) {
    ASSERT_TRUE(m->Prepare(g).ok());
    auto r = m->Match(q, all);
    EXPECT_TRUE(r.complete) << m->name();
    EXPECT_EQ(r.embedding_count, 2u) << m->name();
  }
  // A label absent from the data: no match anywhere.
  GraphBuilder qb2;
  qb2.AddVertex(0);
  qb2.AddVertex(0);
  qb2.AddEdge(0, 1, 99);
  const Graph q2 = std::move(*qb2.Build());
  for (auto& m : engines) {
    EXPECT_EQ(m->Match(q2, all).embedding_count, 0u) << m->name();
  }
}

// Graph::EdgeLabel reports an absent edge as kInvalidEdgeLabel, so that
// value cannot be a real label: a triangle whose closing edge carried it
// used to embed into a 4-cycle by mapping that edge onto a non-edge
// wherever the index-off edge check compares labels.
TEST(EdgeLabelMatchTest, BuildRejectsTheAbsentEdgeLabel) {
  GraphBuilder db;
  for (int i = 0; i < 4; ++i) db.AddVertex(0);
  for (VertexId v = 0; v < 4; ++v) db.AddEdge(v, (v + 1) % 4, 1);
  const Graph g = std::move(*db.Build("c4"));
  ASSERT_EQ(g.EdgeLabel(0, 2), Graph::kInvalidEdgeLabel);

  auto triangle = [](LabelId closing) {
    GraphBuilder qb;
    for (int i = 0; i < 3; ++i) qb.AddVertex(0);
    qb.AddEdge(0, 1, 1);
    qb.AddEdge(1, 2, 1);
    qb.AddEdge(0, 2, closing);
    return qb.Build("tri");
  };
  const auto bad = triangle(Graph::kInvalidEdgeLabel);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), Status::Code::kInvalidArgument)
      << bad.status().ToString();

  // A real closing label still builds, and no engine embeds the triangle
  // into the 4-cycle with the candidate index pinned off.
  const auto good = triangle(1);
  ASSERT_TRUE(good.ok());
  std::vector<std::unique_ptr<Matcher>> engines;
  engines.push_back(std::make_unique<Vf2Matcher>());
  engines.push_back(std::make_unique<QuickSiMatcher>());
  engines.push_back(std::make_unique<GraphQlMatcher>());
  engines.push_back(std::make_unique<SPathMatcher>());
  MatchOptions all;
  all.max_embeddings = UINT64_MAX;
  for (auto& m : engines) {
    m->set_candidate_index(nullptr);
    ASSERT_TRUE(m->Prepare(g).ok());
    EXPECT_EQ(m->Match(*good, all).embedding_count, 0u) << m->name();
  }
}

TEST(EdgeLabelMatchTest, EnginesAgreeWithOracleOnLabelledGraphs) {
  gen::LargeGraphOptions o;
  o.num_vertices = 20;
  o.num_edges = 45;
  o.num_labels = 3;
  o.num_edge_labels = 2;
  o.seed = 99;
  const Graph g = gen::LargeGraph(o);
  ASSERT_TRUE(g.has_edge_labels());
  auto w = gen::GenerateWorkload(g, 4, 4, 101);
  ASSERT_TRUE(w.ok());
  std::vector<std::unique_ptr<Matcher>> engines;
  engines.push_back(std::make_unique<Vf2Matcher>());
  engines.push_back(std::make_unique<QuickSiMatcher>());
  engines.push_back(std::make_unique<GraphQlMatcher>());
  engines.push_back(std::make_unique<SPathMatcher>());
  for (auto& m : engines) ASSERT_TRUE(m->Prepare(g).ok());
  MatchOptions all;
  all.max_embeddings = UINT64_MAX;
  for (const auto& query : *w) {
    ASSERT_TRUE(query.graph.has_edge_labels());
    const uint64_t oracle = testing::BruteForceCount(query.graph, g);
    EXPECT_GE(oracle, 1u);  // planted
    for (auto& m : engines) {
      EXPECT_EQ(m->Match(query.graph, all).embedding_count, oracle)
          << m->name();
    }
  }
}

TEST(EdgeLabelMatchTest, RewritingsPreserveEdgeLabelledCounts) {
  gen::LargeGraphOptions o;
  o.num_vertices = 24;
  o.num_edges = 55;
  o.num_labels = 3;
  o.num_edge_labels = 3;
  o.seed = 100;
  const Graph g = gen::LargeGraph(o);
  const LabelStats stats = LabelStats::FromGraph(g);
  auto w = gen::GenerateWorkload(g, 2, 5, 102);
  ASSERT_TRUE(w.ok());
  MatchOptions all;
  all.max_embeddings = UINT64_MAX;
  for (const auto& query : *w) {
    const uint64_t base = Vf2Match(query.graph, g, all).embedding_count;
    for (Rewriting r : AllRewritings()) {
      auto rq = RewriteQuery(query.graph, r, stats);
      ASSERT_TRUE(rq.ok());
      EXPECT_EQ(Vf2Match(rq->graph, g, all).embedding_count, base)
          << ToString(r);
    }
  }
}

TEST(EdgeLabelIoTest, TveRoundTripKeepsEdgeLabels) {
  GraphDataset ds;
  ds.Add(LabelledTriangle());
  io::LabelDict dict;
  dict.Intern("V0");
  std::ostringstream out;
  ASSERT_TRUE(io::WriteTve(ds, dict, out).ok());
  EXPECT_NE(out.str().find("e 0 1 5"), std::string::npos);
  std::istringstream in(out.str());
  io::LabelDict dict2;
  auto back = io::ReadTve(in, &dict2);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->graph(0).EdgeLabel(0, 1), 5u);
  EXPECT_EQ(back->graph(0).EdgeLabel(1, 2), 6u);
}

TEST(EdgeLabelIoTest, UnlabelledTveStaysTwoField) {
  GraphDataset ds;
  ds.Add(testing::MakePath({0, 1}));
  io::LabelDict dict;
  dict.Intern("A");
  dict.Intern("B");
  std::ostringstream out;
  ASSERT_TRUE(io::WriteTve(ds, dict, out).ok());
  EXPECT_NE(out.str().find("e 0 1\n"), std::string::npos);
}

}  // namespace
}  // namespace psi
