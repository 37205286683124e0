#include "ftv/path_index.hpp"

#include <algorithm>
#include <map>
#include <numeric>

namespace psi {

namespace {

// Extends the simple path `*path` (non-empty, with state `state`) by every
// neighbour of its last vertex not already on it, depth first, up to
// `max_edges` edges; `enter(path, parent_state)` returns each new path's
// state. A path holds at most max_edges + 1 vertices, so a scan of it
// replaces a per-vertex mark array.
template <typename State, typename Enter>
void ExtendPaths(const Graph& g, uint32_t max_edges,
                 std::vector<VertexId>* path, State state,
                 const Enter& enter) {
  if (path->size() > max_edges) return;
  for (VertexId w : g.neighbors(path->back())) {
    if (std::find(path->begin(), path->end(), w) != path->end()) continue;
    path->push_back(w);
    ExtendPaths(g, max_edges, path, enter(*path, state), enter);
    path->pop_back();
  }
}

}  // namespace

void EnumeratePaths(const Graph& g, uint32_t max_edges,
                    const PathVisitor& visitor) {
  std::vector<VertexId> path;
  for (VertexId start = 0; start < g.num_vertices(); ++start) {
    path.assign(1, start);
    visitor(path);  // the 0-edge path
    ExtendPaths(g, max_edges, &path, 0,
                [&](std::span<const VertexId> p, int) {
                  visitor(p);
                  return 0;
                });
  }
}

std::span<const PathPosting> PostingList::Clip(uint32_t begin,
                                               uint32_t end) const {
  const auto before = [](const PathPosting& p, uint32_t gid) {
    return p.graph_id < gid;
  };
  const auto lo =
      std::lower_bound(postings.begin(), postings.end(), begin, before);
  const auto hi = std::lower_bound(lo, postings.end(), end, before);
  return {lo, hi};
}

int32_t PathTrie::FindChild(uint32_t node, LabelId l) const {
  const auto& children = nodes_[node].children;
  auto it = std::lower_bound(
      children.begin(), children.end(), l,
      [](const std::pair<LabelId, uint32_t>& c, LabelId x) {
        return c.first < x;
      });
  if (it == children.end() || it->first != l) return -1;
  return static_cast<int32_t>(it->second);
}

uint32_t PathTrie::ChildOrCreate(uint32_t node, LabelId l) {
  auto& children = nodes_[node].children;
  auto it = std::lower_bound(
      children.begin(), children.end(), l,
      [](const std::pair<LabelId, uint32_t>& c, LabelId x) {
        return c.first < x;
      });
  if (it != children.end() && it->first == l) return it->second;
  const auto fresh = static_cast<uint32_t>(nodes_.size());
  children.insert(it, {l, fresh});
  nodes_.emplace_back();
  return fresh;
}

void PathTrie::Touch(uint32_t node, uint32_t graph_id, uint32_t component) {
  PostingList& list = nodes_[node].list;
  if (list.postings.empty() || list.postings.back().graph_id != graph_id) {
    const auto at = static_cast<uint32_t>(list.components.size());
    list.postings.push_back(PathPosting{graph_id, 0, at, at});
  }
  PathPosting& p = list.postings.back();
  ++p.count;
  // Start vertices arrive grouped by component, so a component new to
  // this posting is never below its last one.
  if (with_components_ &&
      (p.comp_end == p.comp_begin || list.components.back() != component)) {
    list.components.push_back(component);
    ++p.comp_end;
  }
}

void PathTrie::AddGraph(uint32_t graph_id, const Graph& g,
                        uint32_t max_edges) {
  const std::vector<uint32_t>& comp_of = g.ComponentIds();
  std::vector<VertexId> starts(g.num_vertices());
  std::iota(starts.begin(), starts.end(), VertexId{0});
  std::stable_sort(starts.begin(), starts.end(),
                   [&](VertexId a, VertexId b) {
                     return comp_of[a] < comp_of[b];
                   });
  std::vector<VertexId> path;
  for (VertexId start : starts) {
    const auto enter = [&](std::span<const VertexId> p, uint32_t parent) {
      const uint32_t node = ChildOrCreate(parent, g.label(p.back()));
      Touch(node, graph_id, comp_of[start]);
      return node;
    };
    path.assign(1, start);
    ExtendPaths(g, max_edges, &path, enter(path, 0u), enter);
  }
}

const PostingList* PathTrie::Find(std::span<const LabelId> labels) const {
  uint32_t node = 0;
  for (LabelId l : labels) {
    const int32_t next = FindChild(node, l);
    if (next < 0) return nullptr;
    node = static_cast<uint32_t>(next);
  }
  return &nodes_[node].list;
}

std::vector<QueryPath> CollectQueryPaths(const Graph& query,
                                         uint32_t max_edges) {
  // Label-sequence -> count, via a temporary trie-free map.
  std::map<std::vector<LabelId>, uint32_t> counts;
  std::vector<LabelId> labels;
  EnumeratePaths(query, max_edges, [&](std::span<const VertexId> path) {
    labels.clear();
    for (VertexId v : path) labels.push_back(query.label(v));
    ++counts[labels];
  });
  std::vector<QueryPath> out;
  out.reserve(counts.size());
  for (auto& [seq, count] : counts) {
    out.push_back(QueryPath{seq, count});
  }
  return out;
}

}  // namespace psi
