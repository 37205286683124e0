#include "ftv/path_index.hpp"

#include <gtest/gtest.h>

#include <map>

#include "gen/dataset_gen.hpp"
#include "gen/query_gen.hpp"
#include "tests/test_util.hpp"

namespace psi {
namespace {

using testing::MakeCycle;
using testing::MakeGraph;
using testing::MakePath;

TEST(EnumeratePathsTest, PathGraphCounts) {
  // Path a-b-c: 0-edge paths: 3; 1-edge: 4 (each edge, both directions);
  // 2-edge: 2 (the full path, both directions).
  const Graph g = MakePath({0, 1, 2});
  std::map<size_t, int> by_length;
  EnumeratePaths(g, 2, [&](std::span<const VertexId> p) {
    ++by_length[p.size() - 1];
  });
  EXPECT_EQ(by_length[0], 3);
  EXPECT_EQ(by_length[1], 4);
  EXPECT_EQ(by_length[2], 2);
}

TEST(EnumeratePathsTest, SimplePathsOnly) {
  const Graph g = MakeCycle({0, 0, 0});
  EnumeratePaths(g, 3, [&](std::span<const VertexId> p) {
    std::set<VertexId> s(p.begin(), p.end());
    EXPECT_EQ(s.size(), p.size()) << "vertex repeated on a path";
  });
}

TEST(EnumeratePathsTest, MaxEdgesZeroGivesVerticesOnly) {
  const Graph g = MakeCycle({0, 1, 2, 3});
  int count = 0;
  EnumeratePaths(g, 0, [&](std::span<const VertexId> p) {
    EXPECT_EQ(p.size(), 1u);
    ++count;
  });
  EXPECT_EQ(count, 4);
}

/// The posting of graph `gid` in `list`; nullptr when it has none.
const PathPosting* PostingOf(const PostingList& list, uint32_t gid) {
  const auto run = list.Clip(gid, gid + 1);
  return run.empty() ? nullptr : &run.front();
}

std::vector<uint32_t> ComponentsOf(const PostingList& list, uint32_t gid) {
  const auto comps = list.ComponentsOf(*PostingOf(list, gid));
  return {comps.begin(), comps.end()};
}

TEST(PathTrieTest, CountsAndComponents) {
  PathTrie trie(/*with_components=*/true);
  const Graph g = MakePath({0, 1, 0});
  trie.AddGraph(7, g, 2);
  // Two components, "0 1" in both and "2" in the second only: component
  // ids come from the start vertices, sorted and distinct.
  trie.AddGraph(8, MakeGraph({0, 1, 2, 0, 1}, {{0, 1}, {2, 3}, {3, 4}}), 2);
  // Label path "0 1" in graph 7: from vertex 0 and from vertex 2, one
  // component.
  const PostingList* list = trie.Find(std::vector<LabelId>{0, 1});
  ASSERT_NE(list, nullptr);
  ASSERT_NE(PostingOf(*list, 7), nullptr);
  const PathPosting& p = *PostingOf(*list, 7);
  EXPECT_EQ(p.count, 2u);
  EXPECT_EQ(ComponentsOf(*list, 7), (std::vector<uint32_t>{0}));
  EXPECT_EQ(PostingOf(*list, 8)->count, 2u);
  EXPECT_EQ(ComponentsOf(*list, 8), (std::vector<uint32_t>{0, 1}));
  const PostingList* two = trie.Find(std::vector<LabelId>{2});
  ASSERT_NE(two, nullptr);
  EXPECT_EQ(PostingOf(*two, 7), nullptr);
  EXPECT_EQ(ComponentsOf(*two, 8), (std::vector<uint32_t>{1}));
  // Postings are ascending by graph id.
  ASSERT_EQ(list->postings.size(), 2u);
  EXPECT_EQ(list->postings[0].graph_id, 7u);
  EXPECT_EQ(list->postings[1].graph_id, 8u);
}

TEST(PathTrieTest, NoComponentsWhenDisabled) {
  PathTrie trie(/*with_components=*/false);
  const Graph g = MakePath({0, 1});
  trie.AddGraph(0, g, 1);
  const PostingList* list = trie.Find(std::vector<LabelId>{0, 1});
  ASSERT_NE(list, nullptr);
  EXPECT_TRUE(ComponentsOf(*list, 0).empty());
  EXPECT_EQ(PostingOf(*list, 0)->count, 1u);
}

TEST(PathTrieTest, FindMissingReturnsNull) {
  PathTrie trie(true);
  trie.AddGraph(0, MakePath({0, 1}), 1);
  EXPECT_EQ(trie.Find(std::vector<LabelId>{5}), nullptr);
  EXPECT_EQ(trie.Find(std::vector<LabelId>{0, 1, 1}), nullptr);
}

TEST(PathTrieTest, MergeCombinesCountsAndComponents) {
  PathTrie a(true), b(true);
  a.AddGraph(0, MakePath({0, 1}), 1);
  b.AddGraph(0, MakePath({0, 1}), 1);  // same graph id contributes again
  b.AddGraph(1, MakePath({0, 1}), 1);
  a.Merge(b);
  const PostingList* list = a.Find(std::vector<LabelId>{0, 1});
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(PostingOf(*list, 0)->count, 2u);
  EXPECT_EQ(PostingOf(*list, 1)->count, 1u);
  EXPECT_EQ(ComponentsOf(*list, 0), (std::vector<uint32_t>{0}));
  EXPECT_EQ(ComponentsOf(*list, 1), (std::vector<uint32_t>{0}));
}

TEST(PathTrieTest, MergedEqualsSequentialBuild) {
  gen::GraphGenLikeOptions o;
  o.num_graphs = 6;
  o.avg_nodes = 25;
  o.num_labels = 4;
  o.seed = 5;
  auto ds = gen::GraphGenLike(o);

  PathTrie sequential(true);
  for (uint32_t gid = 0; gid < ds.size(); ++gid) {
    sequential.AddGraph(gid, ds.graph(gid), 2);
  }
  PathTrie shard_a(true), shard_b(true);
  for (uint32_t gid = 0; gid < ds.size(); ++gid) {
    (gid % 2 == 0 ? shard_a : shard_b).AddGraph(gid, ds.graph(gid), 2);
  }
  shard_a.Merge(shard_b);

  // Compare on the query paths of each graph.
  for (uint32_t gid = 0; gid < ds.size(); ++gid) {
    for (const auto& qp : CollectQueryPaths(ds.graph(gid), 2)) {
      const PostingList* p1 = sequential.Find(qp.labels);
      const PostingList* p2 = shard_a.Find(qp.labels);
      ASSERT_NE(p1, nullptr);
      ASSERT_NE(p2, nullptr);
      ASSERT_NE(PostingOf(*p1, gid), nullptr);
      ASSERT_NE(PostingOf(*p2, gid), nullptr);
      EXPECT_EQ(PostingOf(*p1, gid)->count, PostingOf(*p2, gid)->count);
      EXPECT_EQ(ComponentsOf(*p1, gid), ComponentsOf(*p2, gid));
    }
  }
}

TEST(CollectQueryPathsTest, CountsMatchEnumeration) {
  const Graph q = MakeCycle({0, 1, 0, 1});
  auto paths = CollectQueryPaths(q, 2);
  // Sum of counts equals the total number of enumerated paths.
  uint64_t total_collected = 0;
  for (const auto& qp : paths) total_collected += qp.count;
  uint64_t total_enumerated = 0;
  EnumeratePaths(q, 2, [&](std::span<const VertexId>) {
    ++total_enumerated;
  });
  EXPECT_EQ(total_collected, total_enumerated);
  // Label sequences are unique.
  std::set<std::vector<LabelId>> seen;
  for (const auto& qp : paths) {
    EXPECT_TRUE(seen.insert(qp.labels).second);
  }
}

TEST(CollectQueryPathsTest, QueryPathCountsNeverExceedSourceGraph) {
  // Soundness backbone of FTV filtering: counts in an extracted subgraph
  // are covered by counts in the stored graph.
  gen::LargeGraphOptions o;
  o.num_vertices = 60;
  o.num_edges = 140;
  o.num_labels = 4;
  o.seed = 9;
  const Graph g = gen::LargeGraph(o);
  PathTrie trie(false);
  trie.AddGraph(0, g, 3);
  auto w = gen::GenerateWorkload(g, 5, 6, 123);
  ASSERT_TRUE(w.ok());
  for (const auto& query : *w) {
    for (const auto& qp : CollectQueryPaths(query.graph, 3)) {
      const PostingList* list = trie.Find(qp.labels);
      ASSERT_NE(list, nullptr) << "query path missing from source";
      EXPECT_GE(PostingOf(*list, 0)->count, qp.count);
    }
  }
}

}  // namespace
}  // namespace psi
