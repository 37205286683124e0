#include "io/graph_io.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gen/dataset_gen.hpp"
#include "gen/rng.hpp"
#include "tests/test_util.hpp"

namespace psi::io {
namespace {

TEST(LabelDictTest, InternAssignsDenseIds) {
  LabelDict d;
  EXPECT_EQ(d.Intern("A"), 0u);
  EXPECT_EQ(d.Intern("B"), 1u);
  EXPECT_EQ(d.Intern("A"), 0u);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.name(1), "B");
  EXPECT_EQ(d.Lookup("B"), 1u);
  EXPECT_EQ(d.Lookup("Z"), LabelDict::kInvalidLabel);
}

TEST(GfuTest, ParsesSingleGraph) {
  std::istringstream in(
      "#toy\n"
      "3\n"
      "A\n"
      "B\n"
      "A\n"
      "2\n"
      "0 1\n"
      "1 2\n");
  LabelDict dict;
  auto ds = ReadGfu(in, &dict);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_EQ(ds->size(), 1u);
  const Graph& g = ds->graph(0);
  EXPECT_EQ(g.name(), "toy");
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.label(0), dict.Lookup("A"));
  EXPECT_EQ(g.label(1), dict.Lookup("B"));
}

TEST(GfuTest, ParsesMultipleGraphsAndWindowsLineEndings) {
  std::istringstream in(
      "#g0\r\n2\r\nX\r\nY\r\n1\r\n0 1\r\n"
      "#g1\r\n1\r\nX\r\n0\r\n");
  LabelDict dict;
  auto ds = ReadGfu(in, &dict);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->size(), 2u);
  EXPECT_EQ(ds->graph(1).num_vertices(), 1u);
}

TEST(GfuTest, RejectsGarbage) {
  LabelDict dict;
  {
    std::istringstream in("not a gfu file\n");
    EXPECT_FALSE(ReadGfu(in, &dict).ok());
  }
  {
    std::istringstream in("#g\nxyz\n");
    EXPECT_FALSE(ReadGfu(in, &dict).ok());
  }
  {
    std::istringstream in("#g\n2\nA\nB\n1\n0\n");  // malformed edge
    EXPECT_FALSE(ReadGfu(in, &dict).ok());
  }
  {
    std::istringstream in("#g\n2\nA\n");  // truncated
    EXPECT_FALSE(ReadGfu(in, &dict).ok());
  }
  {
    // 2^32 + 1 used to wrap to a 1-vertex graph.
    std::istringstream in("#g\n4294967297\nA\n0\n");
    auto r = ReadGfu(in, &dict);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kCorruption)
        << r.status().ToString();
  }
  {
    // A huge header count with no vertex lines must fail as truncated
    // input, not by reserving memory for the claimed vertices.
    std::istringstream in("#g\n4000000000\n");
    auto r = ReadGfu(in, &dict);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kCorruption)
        << r.status().ToString();
  }
}

// Structure must survive a round trip exactly; label *ids* may permute
// (the reader interns labels in first-seen order), so labels are compared
// through their external names.
void ExpectSameGraphModuloDict(const Graph& a, const LabelDict& da,
                               const Graph& b, const LabelDict& db) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(da.name(a.label(v)), db.name(b.label(v))) << "vertex " << v;
    auto na = a.neighbors(v);
    auto nb = b.neighbors(v);
    EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
  }
}

TEST(GfuTest, RoundTripPreservesGraphs) {
  gen::GraphGenLikeOptions o;
  o.num_graphs = 4;
  o.avg_nodes = 30;
  o.num_labels = 5;
  o.seed = 12;
  auto ds = gen::GraphGenLike(o);
  LabelDict dict;
  for (uint32_t l = 0; l < 5; ++l) dict.Intern("L" + std::to_string(l));

  std::ostringstream out;
  ASSERT_TRUE(WriteGfu(ds, dict, out).ok());
  std::istringstream in(out.str());
  LabelDict dict2;
  auto back = ReadGfu(in, &dict2);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    ExpectSameGraphModuloDict(ds.graph(i), dict, back->graph(i), dict2);
  }
}

TEST(TveTest, ParsesTransactionalBlocks) {
  std::istringstream in(
      "t # 0\n"
      "v 0 A\n"
      "v 1 B\n"
      "v 2 A\n"
      "e 0 1\n"
      "e 1 2\n"
      "t # 1\n"
      "v 0 C\n");
  LabelDict dict;
  auto ds = ReadTve(in, &dict);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_EQ(ds->size(), 2u);
  EXPECT_EQ(ds->graph(0).num_edges(), 2u);
  EXPECT_EQ(ds->graph(1).num_vertices(), 1u);
}

TEST(TveTest, RejectsMalformedInput) {
  LabelDict dict;
  {
    std::istringstream in("v 0 A\n");  // vertex before 't'
    EXPECT_FALSE(ReadTve(in, &dict).ok());
  }
  {
    std::istringstream in("t # 0\nv 1 A\n");  // non-dense ids
    EXPECT_FALSE(ReadTve(in, &dict).ok());
  }
  {
    std::istringstream in("t # 0\nq 0\n");  // unknown tag
    EXPECT_FALSE(ReadTve(in, &dict).ok());
  }
  // A present edge label must be a decimal below Graph::kInvalidEdgeLabel,
  // the value that stands for an absent edge. "-1" used to wrap to it and
  // "x" used to read as label 0.
  for (const char* edge : {"e 0 1 -1", "e 0 1 4294967295", "e 0 1 x"}) {
    std::istringstream in(std::string("t # 0\nv 0 A\nv 1 A\n") + edge +
                          "\n");
    auto r = ReadTve(in, &dict);
    ASSERT_FALSE(r.ok()) << edge;
    EXPECT_EQ(r.status().code(), Status::Code::kCorruption)
        << edge << ": " << r.status().ToString();
  }
}

TEST(TveTest, RoundTrip) {
  gen::GraphGenLikeOptions o;
  o.num_graphs = 3;
  o.avg_nodes = 25;
  o.num_labels = 4;
  o.seed = 13;
  auto ds = gen::GraphGenLike(o);
  LabelDict dict;
  for (uint32_t l = 0; l < 4; ++l) dict.Intern("lbl" + std::to_string(l));
  std::ostringstream out;
  ASSERT_TRUE(WriteTve(ds, dict, out).ok());
  std::istringstream in(out.str());
  LabelDict dict2;
  auto back = ReadTve(in, &dict2);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    ExpectSameGraphModuloDict(ds.graph(i), dict, back->graph(i), dict2);
  }
}

// ---- Seeded mutation fuzzer ----
//
// Graph files are untrusted input: every mutation of a well-formed file
// must either fail with a typed parse error or yield graphs whose edge
// labels are all real (below Graph::kInvalidEdgeLabel), and none may
// crash the reader. CI also runs this under ASan.

constexpr int kFuzzMutations = 10000;

// The `write` output (WriteGfu or WriteTve) of a small generated dataset
// with edge labels.
template <typename Writer>
std::string FuzzSeedText(Writer write) {
  GraphDataset ds;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    gen::LargeGraphOptions o;
    o.num_vertices = 12;
    o.num_edges = 20;
    o.num_labels = 3;
    o.num_edge_labels = 4;
    o.seed = seed;
    ds.Add(gen::LargeGraph(o));
    EXPECT_TRUE(ds.graph(ds.size() - 1).has_edge_labels());
  }
  LabelDict dict;
  for (uint32_t l = 0; l < 3; ++l) dict.Intern("L" + std::to_string(l));
  std::ostringstream out;
  EXPECT_TRUE(write(ds, dict, out).ok());
  return out.str();
}

// One mutation: a few byte flips, a dropped or duplicated line, or a
// numeric token replaced by a value that wraps or overflows.
std::string Mutate(const std::string& text, Rng& rng) {
  static const char* const kBadNumbers[] = {"-1", "4294967295",
                                            "18446744073709551616"};
  std::string out = text;
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  switch (rng.UniformInt(0, 2)) {
    case 0: {
      for (int64_t f = rng.UniformInt(1, 4); f > 0; --f) {
        out[pick(out.size())] ^= static_cast<char>(1 << pick(8));
      }
      break;
    }
    case 1: {
      std::vector<std::string> lines;
      std::istringstream in(out);
      for (std::string line; std::getline(in, line);) lines.push_back(line);
      if (lines.empty()) break;
      const auto at = lines.begin() + static_cast<std::ptrdiff_t>(
                                          pick(lines.size()));
      if (rng.UniformInt(0, 1) == 0) {
        lines.erase(at);
      } else {
        lines.insert(at, *at);
      }
      out.clear();
      for (const std::string& line : lines) out += line + "\n";
      break;
    }
    default: {
      std::vector<std::pair<size_t, size_t>> runs;  // (offset, length)
      for (size_t i = 0; i < out.size();) {
        size_t j = i;
        while (j < out.size() &&
               std::isdigit(static_cast<unsigned char>(out[j]))) {
          ++j;
        }
        if (j > i) runs.push_back({i, j - i});
        i = j + 1;
      }
      if (runs.empty()) break;
      const auto [offset, length] = runs[pick(runs.size())];
      out.replace(offset, length, kBadNumbers[pick(3)]);
      break;
    }
  }
  return out;
}

template <typename Reader>
void FuzzReader(const std::string& seed_text, Reader read) {
  Rng rng(20170324);
  int rejected = 0;
  for (int i = 0; i < kFuzzMutations; ++i) {
    std::string text = seed_text;
    for (int64_t k = rng.UniformInt(1, 3); k > 0; --k) text = Mutate(text, rng);
    std::istringstream in(text);
    LabelDict dict;
    const Result<GraphDataset> r = read(in, &dict);
    if (!r.ok()) {
      ++rejected;
      const Status::Code code = r.status().code();
      ASSERT_TRUE(code == Status::Code::kCorruption ||
                  code == Status::Code::kInvalidArgument)
          << r.status().ToString() << "\n" << text;
      continue;
    }
    for (const Graph& g : r->graphs()) {
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        for (LabelId l : g.edge_labels(v)) {
          ASSERT_LT(l, Graph::kInvalidEdgeLabel) << text;
        }
      }
    }
  }
  // Neither outcome may be vacuous.
  EXPECT_GT(rejected, 0);
  EXPECT_LT(rejected, kFuzzMutations);
}

TEST(GraphIoFuzzTest, MutatedGfuFailsTypedOrParses) {
  FuzzReader(FuzzSeedText(WriteGfu), ReadGfu);
}

TEST(GraphIoFuzzTest, MutatedTveFailsTypedOrParses) {
  FuzzReader(FuzzSeedText(WriteTve), ReadTve);
}

TEST(FileIoTest, MissingFileGivesIOError) {
  LabelDict dict;
  EXPECT_EQ(ReadGfuFile("/nonexistent/path.gfu", &dict).status().code(),
            Status::Code::kIOError);
  EXPECT_EQ(ReadTveFile("/nonexistent/path.tve", &dict).status().code(),
            Status::Code::kIOError);
}

}  // namespace
}  // namespace psi::io
