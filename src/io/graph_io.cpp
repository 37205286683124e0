#include "io/graph_io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace psi::io {

namespace {

Status ParseError(size_t line_no, const std::string& what) {
  return Status::Corruption("line " + std::to_string(line_no) + ": " + what);
}

// Exception-free unsigned parse of a full line.
bool ParseUint(const std::string& s, uint64_t* out) {
  const char* first = s.data();
  const char* last = s.data() + s.size();
  while (first < last && (*first == ' ' || *first == '\t')) ++first;
  auto [ptr, ec] = std::from_chars(first, last, *out);
  if (ec != std::errc()) return false;
  while (ptr < last && (*ptr == ' ' || *ptr == '\t')) ++ptr;
  return ptr == last;
}

// Reads the next non-empty line; returns false at EOF.
bool NextLine(std::istream& in, std::string* line, size_t* line_no) {
  while (std::getline(in, *line)) {
    ++*line_no;
    // Trim trailing CR (files written on Windows, as in the paper's setup).
    if (!line->empty() && line->back() == '\r') line->pop_back();
    if (!line->empty()) return true;
  }
  return false;
}

}  // namespace

Result<GraphDataset> ReadGfu(std::istream& in, LabelDict* dict) {
  GraphDataset ds;
  std::string line;
  size_t line_no = 0;
  while (NextLine(in, &line, &line_no)) {
    if (line[0] != '#') {
      return ParseError(line_no, "expected '#graph_name'");
    }
    const std::string name = line.substr(1);
    if (!NextLine(in, &line, &line_no)) {
      return ParseError(line_no, "missing vertex count");
    }
    uint64_t n64 = 0;
    if (!ParseUint(line, &n64)) {
      return ParseError(line_no, "bad vertex count '" + line + "'");
    }
    // The count is untrusted: it must fit a vertex id, and the builder
    // grows with the vertex lines actually read instead of pre-sizing
    // from the header.
    if (n64 >= kInvalidVertex) {
      return ParseError(line_no, "vertex count " + line + " out of range");
    }
    const auto n = static_cast<uint32_t>(n64);
    GraphBuilder b;
    for (uint32_t v = 0; v < n; ++v) {
      if (!NextLine(in, &line, &line_no)) {
        return ParseError(line_no, "missing vertex label");
      }
      b.AddVertex(dict->Intern(line));
    }
    if (!NextLine(in, &line, &line_no)) {
      return ParseError(line_no, "missing edge count");
    }
    uint64_t m = 0;
    if (!ParseUint(line, &m)) {
      return ParseError(line_no, "bad edge count '" + line + "'");
    }
    for (uint64_t e = 0; e < m; ++e) {
      if (!NextLine(in, &line, &line_no)) {
        return ParseError(line_no, "missing edge");
      }
      std::istringstream es(line);
      uint32_t u = 0, v = 0;
      if (!(es >> u >> v)) {
        return ParseError(line_no, "bad edge '" + line + "'");
      }
      b.AddEdge(u, v);
    }
    auto g = b.Build(name);
    if (!g.ok()) return g.status();
    ds.Add(std::move(g).value());
  }
  return ds;
}

Result<GraphDataset> ReadGfuFile(const std::string& path, LabelDict* dict) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  return ReadGfu(in, dict);
}

Status WriteGfu(const GraphDataset& ds, const LabelDict& dict,
                std::ostream& out) {
  for (const Graph& g : ds.graphs()) {
    out << '#' << (g.name().empty() ? "graph" : g.name()) << '\n';
    out << g.num_vertices() << '\n';
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (g.label(v) >= dict.size()) {
        return Status::InvalidArgument("label not in dictionary");
      }
      out << dict.name(g.label(v)) << '\n';
    }
    out << g.num_edges() << '\n';
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (VertexId w : g.neighbors(v)) {
        if (v < w) out << v << ' ' << w << '\n';
      }
    }
  }
  return out.good() ? Status::OK() : Status::IOError("write failed");
}

Result<GraphDataset> ReadTve(std::istream& in, LabelDict* dict) {
  GraphDataset ds;
  std::string line;
  size_t line_no = 0;
  bool in_graph = false;
  std::string pending_name;
  std::vector<LabelId> labels;
  struct TveEdge {
    uint32_t u, v, label;
  };
  std::vector<TveEdge> edges;

  auto flush = [&]() -> Status {
    if (!in_graph) return Status::OK();
    GraphBuilder b(static_cast<uint32_t>(labels.size()));
    for (LabelId l : labels) b.AddVertex(l);
    for (const auto& e : edges) b.AddEdge(e.u, e.v, e.label);
    auto g = b.Build(pending_name);
    if (!g.ok()) return g.status();
    ds.Add(std::move(g).value());
    labels.clear();
    edges.clear();
    return Status::OK();
  };

  while (NextLine(in, &line, &line_no)) {
    std::istringstream ls(line);
    char tag = 0;
    ls >> tag;
    if (tag == 't') {
      PSI_RETURN_NOT_OK(flush());
      std::string hash;
      std::string id;
      ls >> hash >> id;
      pending_name = "t" + id;
      in_graph = true;
    } else if (tag == 'v') {
      if (!in_graph) return ParseError(line_no, "'v' before 't'");
      uint32_t id = 0;
      std::string label;
      if (!(ls >> id >> label)) return ParseError(line_no, "bad 'v' line");
      if (id != labels.size()) {
        return ParseError(line_no, "non-dense vertex ids");
      }
      labels.push_back(dict->Intern(label));
    } else if (tag == 'e') {
      if (!in_graph) return ParseError(line_no, "'e' before 't'");
      uint32_t u = 0, v = 0;
      if (!(ls >> u >> v)) return ParseError(line_no, "bad 'e' line");
      // Optional edge label: a decimal below Graph::kInvalidEdgeLabel,
      // which stands for an absent edge.
      uint64_t edge_label = 0;
      std::string token;
      if (ls >> token && (!ParseUint(token, &edge_label) ||
                          edge_label >= Graph::kInvalidEdgeLabel)) {
        return ParseError(line_no, "bad edge label '" + token + "'");
      }
      edges.push_back({u, v, static_cast<uint32_t>(edge_label)});
    } else {
      return ParseError(line_no, "unknown tag '" + std::string(1, tag) + "'");
    }
  }
  PSI_RETURN_NOT_OK(flush());
  return ds;
}

Result<GraphDataset> ReadTveFile(const std::string& path, LabelDict* dict) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  return ReadTve(in, dict);
}

Status WriteTve(const GraphDataset& ds, const LabelDict& dict,
                std::ostream& out) {
  for (size_t i = 0; i < ds.size(); ++i) {
    const Graph& g = ds.graph(i);
    out << "t # " << i << '\n';
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (g.label(v) >= dict.size()) {
        return Status::InvalidArgument("label not in dictionary");
      }
      out << "v " << v << ' ' << dict.name(g.label(v)) << '\n';
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      auto adj = g.neighbors(v);
      auto elabels = g.edge_labels(v);
      for (size_t i = 0; i < adj.size(); ++i) {
        if (v < adj[i]) {
          out << "e " << v << ' ' << adj[i];
          if (g.has_edge_labels()) out << ' ' << elabels[i];
          out << '\n';
        }
      }
    }
  }
  return out.good() ? Status::OK() : Status::IOError("write failed");
}

}  // namespace psi::io
