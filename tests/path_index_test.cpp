#include "ftv/path_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

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
  const auto it = std::lower_bound(
      list.postings.begin(), list.postings.end(), gid,
      [](const PathPosting& p, uint32_t g) { return p.graph_id < g; });
  return it == list.postings.end() || it->graph_id != gid ? nullptr : &*it;
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

/// True when `labels` has no posting in `trie`: never seen, or seen only
/// as the reverse of a recorded path.
bool HasNoPosting(const PathTrie& trie, std::vector<LabelId> labels) {
  const PostingList* list = trie.Find(labels);
  return list == nullptr || list->postings.empty();
}

TEST(PathTrieTest, RecordsOnlyTheCanonicalOrientation) {
  PathTrie trie(/*with_components=*/true);
  trie.AddGraph(0, MakePath({0, 1, 0}), 2);
  trie.AddGraph(1, MakePath({0, 1, 2}), 2);
  // "0 1" sorts before its reverse "1 0": graph 0 holds it from both
  // ends, graph 1 once.
  const PostingList* ab = trie.Find(std::vector<LabelId>{0, 1});
  ASSERT_NE(ab, nullptr);
  ASSERT_EQ(ab->postings.size(), 2u);
  EXPECT_EQ(PostingOf(*ab, 0)->count, 2u);
  EXPECT_EQ(PostingOf(*ab, 1)->count, 1u);
  EXPECT_EQ(ComponentsOf(*ab, 0), (std::vector<uint32_t>{0}));
  EXPECT_EQ(ComponentsOf(*ab, 1), (std::vector<uint32_t>{0}));
  // A palindrome is its own reverse: both directions count.
  const PostingList* aba = trie.Find(std::vector<LabelId>{0, 1, 0});
  ASSERT_NE(aba, nullptr);
  ASSERT_EQ(aba->postings.size(), 1u);
  EXPECT_EQ(PostingOf(*aba, 0)->count, 2u);
  EXPECT_EQ(ComponentsOf(*aba, 0), (std::vector<uint32_t>{0}));
  const PostingList* abc = trie.Find(std::vector<LabelId>{0, 1, 2});
  ASSERT_NE(abc, nullptr);
  ASSERT_EQ(abc->postings.size(), 1u);
  EXPECT_EQ(PostingOf(*abc, 1)->count, 1u);
  EXPECT_EQ(ComponentsOf(*abc, 1), (std::vector<uint32_t>{0}));
  // The reversed orientations carry nothing.
  EXPECT_TRUE(HasNoPosting(trie, {1, 0}));
  EXPECT_TRUE(HasNoPosting(trie, {2, 1, 0}));
  // Ten (sequence, graph) pairs, where both orientations would make 14.
  EXPECT_EQ(trie.num_postings(), 10u);
}

TEST(PathTrieTest, CanonicalPostingsMatchEnumeration) {
  // The trie against a restatement of its contract over EnumeratePaths:
  // per canonical label sequence (one that sorts no later than its
  // reverse) and graph, the occurrence count and the sorted distinct
  // components of the occurrences' start vertices; no posting for any
  // other sequence.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    GraphDataset ds;
    if (seed % 2 == 0) {
      gen::GraphGenLikeOptions o;
      o.num_graphs = 5;
      o.avg_nodes = 30;
      o.density = 0.08;
      o.num_labels = 3 + static_cast<uint32_t>(seed);
      o.seed = seed * 31 + 7;
      ds = gen::GraphGenLike(o);
    } else {
      gen::PpiLikeOptions o;
      o.num_graphs = 4;
      o.avg_nodes = 40;
      o.avg_degree = 4.0;
      o.num_labels = 6;
      o.labels_per_graph = 3 + static_cast<uint32_t>(seed % 3);
      o.components_per_graph = 3;
      o.seed = seed * 37 + 5;
      ds = gen::PpiLike(o);
    }
    const uint32_t max_edges = static_cast<uint32_t>(seed % 4);
    PathTrie trie(/*with_components=*/true);
    struct Expected {
      uint32_t count = 0;
      std::set<uint32_t> components;
    };
    std::map<std::vector<LabelId>, std::map<uint32_t, Expected>> expected;
    for (uint32_t gid = 0; gid < ds.size(); ++gid) {
      const Graph& g = ds.graph(gid);
      trie.AddGraph(gid, g, max_edges);
      EnumeratePaths(g, max_edges, [&](std::span<const VertexId> p) {
        std::vector<LabelId> labels;
        for (VertexId v : p) labels.push_back(g.label(v));
        Expected& e = expected[labels][gid];
        ++e.count;
        e.components.insert(g.ComponentIds()[p.front()]);
      });
    }
    size_t canonical_postings = 0;
    for (const auto& [labels, by_graph] : expected) {
      const std::vector<LabelId> reversed(labels.rbegin(), labels.rend());
      if (reversed < labels) {
        EXPECT_TRUE(HasNoPosting(trie, labels)) << "seed=" << seed;
        continue;
      }
      const PostingList* list = trie.Find(labels);
      ASSERT_NE(list, nullptr) << "seed=" << seed;
      ASSERT_EQ(list->postings.size(), by_graph.size()) << "seed=" << seed;
      size_t i = 0;
      for (const auto& [gid, e] : by_graph) {
        const PathPosting& p = list->postings[i++];
        EXPECT_EQ(p.graph_id, gid) << "seed=" << seed;
        EXPECT_EQ(p.count, e.count) << "seed=" << seed << " graph=" << gid;
        const auto comps = list->ComponentsOf(p);
        EXPECT_EQ(std::vector<uint32_t>(comps.begin(), comps.end()),
                  std::vector<uint32_t>(e.components.begin(),
                                        e.components.end()))
            << "seed=" << seed << " graph=" << gid;
      }
      canonical_postings += by_graph.size();
    }
    // Nothing beyond the enumerated canonical (sequence, graph) pairs.
    EXPECT_EQ(trie.num_postings(), canonical_postings) << "seed=" << seed;
  }
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
      // The trie records a path under its canonical orientation, whose
      // count equals the reversed orientation's.
      std::vector<LabelId> labels = qp.labels;
      if (!IsCanonicalPath(labels)) std::reverse(labels.begin(), labels.end());
      const PostingList* list = trie.Find(labels);
      ASSERT_NE(list, nullptr) << "query path missing from source";
      const PathPosting* posting = PostingOf(*list, 0);
      ASSERT_NE(posting, nullptr) << "query path missing from source";
      EXPECT_GE(posting->count, qp.count);
    }
  }
}

}  // namespace
}  // namespace psi
