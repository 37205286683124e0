// Differential testing of the FTV filter on range-sharded indexes
// (ftv/filter_shards.hpp) against the single-trie filter, plus its
// concurrency and determinism contracts:
//
//  * Randomized differential harness: across many seeded generated
//    collections and query workloads, the candidate set of an index
//    built as several graph-id ranges (explicit filter_shards, or
//    Grapes/N's num_threads) must be byte-identical to the single trie's
//    (graph ids *and* component sets), for Grapes and GGSX alike, and
//    with range builds displaced by admission control. PSI_TEST_SEEDS
//    overrides the seed count (default 100; CI's TSan job runs fewer).
//  * Census oracle: the filter's candidates must equal ones computed
//    without any trie, from per-component label-path counts
//    (CollectQueryPaths over each extracted component, every path in
//    both orientations), at indexed path lengths of 0 to 3 edges.
//  * Soundness oracle: no pruned graph may embed the query (first-match
//    VF2 as ground truth).
//  * 8-client stress: concurrent Filter calls on a sharded index next to
//    kPool engine races on one shared executor — runs under TSan in CI.
//  * Determinism: RunFtvWorkloadPsiParallel, whose helper tasks serve
//    whole queries, produces records identical (order and content) to
//    the serial runner's on a sharded index, even on a rejecting,
//    shedding or capacity-0 pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "core/env.hpp"
#include "core/graph_algos.hpp"
#include "ftv/filter_shards.hpp"
#include "gen/dataset_gen.hpp"
#include "gen/query_gen.hpp"
#include "ggsx/ggsx.hpp"
#include "grapes/grapes.hpp"
#include "graphql/graphql.hpp"
#include "psi/engine.hpp"
#include "spath/spath.hpp"
#include "tests/test_util.hpp"
#include "vf2/vf2.hpp"
#include "workload/runner.hpp"

namespace psi {
namespace {

int NumSeeds() {
  return static_cast<int>(EnvInt("PSI_TEST_SEEDS", 100));
}

/// A small generated collection, deterministic per seed. Alternates
/// between the uniform GraphGen-like shape and the hub-heavy PPI-like
/// shape so both posting distributions are exercised.
GraphDataset MakeCollection(uint64_t seed) {
  if (seed % 2 == 0) {
    gen::GraphGenLikeOptions o;
    o.num_graphs = 12 + static_cast<uint32_t>(seed % 5) * 4;  // 12..28
    o.avg_nodes = 30 + static_cast<uint32_t>(seed % 7) * 5;   // 30..60
    o.density = 0.06 + 0.01 * static_cast<double>(seed % 5);
    o.num_labels = 4 + static_cast<uint32_t>(seed % 8);       // 4..11
    o.seed = seed * 7919 + 1;
    return gen::GraphGenLike(o);
  }
  gen::PpiLikeOptions o;
  o.num_graphs = 8 + static_cast<uint32_t>(seed % 4) * 3;  // 8..17
  o.avg_nodes = 40 + static_cast<uint32_t>(seed % 5) * 8;
  o.avg_degree = 5.0 + static_cast<double>(seed % 3);
  o.num_labels = 6 + static_cast<uint32_t>(seed % 6);
  o.labels_per_graph = 5 + static_cast<uint32_t>(seed % 4);
  o.components_per_graph = 2 + static_cast<uint32_t>(seed % 2);
  o.seed = seed * 6007 + 3;
  return gen::PpiLike(o);
}

std::vector<gen::Query> MakeQueries(const GraphDataset& ds, uint64_t seed) {
  const uint32_t num_edges = 3 + static_cast<uint32_t>(seed % 4);  // 3..6
  auto w = gen::GenerateWorkload(ds, /*count=*/3, num_edges, seed * 104729);
  return w.ok() ? std::move(w).value() : std::vector<gen::Query>{};
}

// ---- Census oracle: expected candidates without any trie ---------------

/// Label-path counts of every component of every stored graph:
/// census[gid][c] maps a label sequence to its count in component c.
using PathCensus =
    std::vector<std::vector<std::map<std::vector<LabelId>, uint32_t>>>;

PathCensus TakeCensus(const GraphDataset& ds, uint32_t max_edges) {
  PathCensus census(ds.size());
  for (uint32_t gid = 0; gid < ds.size(); ++gid) {
    const Graph& g = ds.graph(gid);
    for (uint32_t c = 0; c < g.NumComponents(); ++c) {
      auto comp = ExtractComponent(g, c);
      EXPECT_TRUE(comp.ok());
      auto& counts = census[gid].emplace_back();
      for (QueryPath& qp : CollectQueryPaths(*comp, max_edges)) {
        counts.emplace(std::move(qp.labels), qp.count);
      }
    }
  }
  return census;
}

/// The filter's contract restated over the census. A graph survives when
/// its count (summed over components) covers every query path's count.
/// With `narrow` (Grapes) and a connected query — which has at least one
/// path — its components are those holding every query path, and an
/// empty intersection drops it; otherwise it keeps all its components.
std::vector<GrapesCandidate> CensusFilter(const PathCensus& census,
                                          const Graph& query,
                                          uint32_t max_edges, bool narrow) {
  const std::vector<QueryPath> paths = CollectQueryPaths(query, max_edges);
  narrow = narrow && query.NumComponents() == 1;
  std::vector<GrapesCandidate> out;
  for (uint32_t gid = 0; gid < census.size(); ++gid) {
    const auto& comps = census[gid];
    std::vector<uint32_t> holding(comps.size());
    std::iota(holding.begin(), holding.end(), 0u);
    bool covers = true;
    for (const QueryPath& qp : paths) {
      uint32_t total = 0;
      std::vector<uint32_t> here;
      for (uint32_t c = 0; c < comps.size(); ++c) {
        const auto it = comps[c].find(qp.labels);
        if (it == comps[c].end()) continue;
        total += it->second;
        here.push_back(c);
      }
      if (total < qp.count) {
        covers = false;
        break;
      }
      if (narrow) {
        std::vector<uint32_t> both;
        std::set_intersection(holding.begin(), holding.end(), here.begin(),
                              here.end(), std::back_inserter(both));
        holding = std::move(both);
      }
    }
    if (!covers || (narrow && holding.empty())) continue;
    out.push_back(GrapesCandidate{gid, std::move(holding)});
  }
  return out;
}

void ExpectSameCandidates(const std::vector<GrapesCandidate>& serial,
                          const std::vector<GrapesCandidate>& sharded,
                          uint64_t seed, const char* what) {
  ASSERT_EQ(serial.size(), sharded.size())
      << what << " candidate count diverged, seed=" << seed;
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].graph_id, sharded[i].graph_id)
        << what << " graph id at " << i << ", seed=" << seed;
    EXPECT_EQ(serial[i].components, sharded[i].components)
        << what << " components of graph " << serial[i].graph_id
        << ", seed=" << seed;
  }
}

TEST(FilterShardsTest, ComputeShardRangesPartitionsExactly) {
  for (uint32_t n : {0u, 1u, 2u, 7u, 16u, 100u}) {
    for (uint32_t s : {1u, 2u, 3u, 5u, 200u}) {
      const auto ranges = ComputeShardRanges(n, s);
      if (n == 0) {
        EXPECT_TRUE(ranges.empty());
        continue;
      }
      EXPECT_EQ(ranges.size(), std::min(n, s));
      uint32_t expect_begin = 0;
      for (const ShardRange& r : ranges) {
        EXPECT_EQ(r.begin, expect_begin);
        EXPECT_GT(r.size(), 0u);
        expect_begin = r.end;
      }
      EXPECT_EQ(expect_begin, n);
      // Near-equal: sizes differ by at most one.
      EXPECT_LE(ranges.front().size() - ranges.back().size(), 1u);
    }
  }
}

TEST(FilterShardsTest, ResolveFilterShardsPrecedence) {
  Executor exec(ExecutorOptions{.num_threads = 3});
  EXPECT_EQ(ResolveFilterShards(5, 100, &exec), 5u);   // explicit wins
  EXPECT_EQ(ResolveFilterShards(0, 100, &exec), 3u);   // pool width
  EXPECT_EQ(ResolveFilterShards(64, 10, &exec), 10u);  // clamped
  EXPECT_EQ(ResolveFilterShards(0, 0, &exec), 1u);
  EXPECT_EQ(ResolveFilterShards(1, 100, &exec), 1u);   // explicit serial
}

TEST(FilterShardsTest, FilterBeforeBuildIsEmptyAndUncounted) {
  const Graph query = testing::MakePath({0, 1});
  GrapesIndex grapes;
  GgsxIndex ggsx;
  EXPECT_TRUE(grapes.Filter(query).empty());
  EXPECT_TRUE(ggsx.Filter(query).empty());
  PoolGauges g;
  grapes.filter_stats().AddTo(&g);
  ggsx.filter_stats().AddTo(&g);
  EXPECT_EQ(g.filter_queries, 0u);
}

// ---- The randomized differential harness -------------------------------

class FtvParallelFilterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    exec_ = new Executor(ExecutorOptions{.num_threads = 2});
  }
  static void TearDownTestSuite() {
    delete exec_;
    exec_ = nullptr;
  }
  static Executor* exec_;
};

Executor* FtvParallelFilterTest::exec_ = nullptr;

TEST_F(FtvParallelFilterTest, ShardedGrapesFilterMatchesSerialAcrossSeeds) {
  const int seeds = NumSeeds();
  int queries_checked = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    const GraphDataset ds = MakeCollection(seed);
    // Path lengths 0..3 edges: the 0-edge-only filter, and palindromes of
    // odd and even length.
    const auto max_edges = static_cast<uint32_t>(seed % 4);
    GrapesOptions serial_opts;  // single trie, serial filter
    serial_opts.max_path_edges = max_edges;
    GrapesIndex serial(serial_opts);
    ASSERT_TRUE(serial.Build(ds).ok());
    const PathCensus census = TakeCensus(ds, max_edges);

    GrapesOptions sharded_opts;
    sharded_opts.max_path_edges = max_edges;
    sharded_opts.filter_shards = 2 + seed % 4;  // 2..5 shards
    sharded_opts.executor = exec_;
    GrapesIndex sharded(sharded_opts);
    ASSERT_TRUE(sharded.Build(ds).ok());
    ASSERT_GT(sharded.num_filter_shards(), 1u);

    // Grapes/N: one range per build thread through the same range build.
    GrapesOptions multi_opts;
    multi_opts.max_path_edges = max_edges;
    multi_opts.num_threads = 2 + seed % 3;  // 2..4 threads
    multi_opts.filter_shards = 1;
    multi_opts.executor = exec_;
    GrapesIndex multi(multi_opts);
    ASSERT_TRUE(multi.Build(ds).ok());
    ASSERT_EQ(multi.num_filter_shards(),
              std::min<size_t>(multi_opts.num_threads, ds.size()));

    for (const gen::Query& q : MakeQueries(ds, seed)) {
      const auto base = serial.Filter(q.graph);
      ExpectSameCandidates(
          CensusFilter(census, q.graph, max_edges, /*narrow=*/true), base,
          seed, "census");
      ExpectSameCandidates(base, sharded.Filter(q.graph), seed,
                           "sharded Filter");
      ExpectSameCandidates(base, multi.Filter(q.graph), seed,
                           "Grapes/N Filter");
      ++queries_checked;
    }
  }
  EXPECT_GT(queries_checked, 0);
}

TEST_F(FtvParallelFilterTest, ShardedGgsxFilterMatchesSerialAcrossSeeds) {
  const int seeds = NumSeeds();
  for (int seed = 1; seed <= seeds; ++seed) {
    const GraphDataset ds = MakeCollection(seed);
    const auto max_edges = static_cast<uint32_t>(seed % 4);
    GgsxOptions serial_opts;
    serial_opts.max_path_edges = max_edges;
    GgsxIndex serial(serial_opts);
    ASSERT_TRUE(serial.Build(ds).ok());
    const PathCensus census = TakeCensus(ds, max_edges);

    GgsxOptions sharded_opts;
    sharded_opts.max_path_edges = max_edges;
    sharded_opts.filter_shards = 2 + seed % 3;
    sharded_opts.executor = exec_;
    GgsxIndex sharded(sharded_opts);
    ASSERT_TRUE(sharded.Build(ds).ok());

    for (const gen::Query& q : MakeQueries(ds, seed)) {
      const auto base = serial.Filter(q.graph);
      std::vector<uint32_t> expected;
      for (const GrapesCandidate& c :
           CensusFilter(census, q.graph, max_edges, /*narrow=*/false)) {
        expected.push_back(c.graph_id);
      }
      EXPECT_EQ(expected, base) << "census, seed=" << seed;
      EXPECT_EQ(base, sharded.Filter(q.graph)) << "seed=" << seed;
    }
  }
}

TEST_F(FtvParallelFilterTest, ShardedFilterIsSoundAgainstVf2Oracle) {
  // Every graph the sharded filter prunes must truly not contain the
  // query. A subset of the differential seeds keeps the exponential
  // oracle affordable.
  const int seeds = std::max(NumSeeds() / 10, 3);
  MatchOptions mo;
  mo.max_embeddings = 1;
  for (int seed = 1; seed <= seeds; ++seed) {
    const GraphDataset ds = MakeCollection(seed);
    GrapesOptions opts;
    opts.filter_shards = 3;
    opts.executor = exec_;
    GrapesIndex sharded(opts);
    ASSERT_TRUE(sharded.Build(ds).ok());
    for (const gen::Query& q : MakeQueries(ds, seed)) {
      std::set<uint32_t> kept;
      for (const auto& c : sharded.Filter(q.graph)) {
        kept.insert(c.graph_id);
      }
      for (uint32_t gid = 0; gid < ds.size(); ++gid) {
        if (kept.count(gid)) continue;
        EXPECT_FALSE(Vf2Match(q.graph, ds.graph(gid), mo).found())
            << "sharded filter pruned a true answer: seed=" << seed
            << " graph=" << gid;
      }
    }
  }
}

TEST_F(FtvParallelFilterTest, DisconnectedQueryKeepsAllComponents) {
  const GraphDataset ds = MakeCollection(3);  // PPI-like, multi-component
  GrapesIndex serial;
  ASSERT_TRUE(serial.Build(ds).ok());
  GrapesOptions opts;
  opts.filter_shards = 3;
  opts.executor = exec_;
  GrapesIndex sharded(opts);
  ASSERT_TRUE(sharded.Build(ds).ok());

  // Two disjoint labelled edges — a 2-component query takes the
  // all-components fallback path in both filters.
  const Graph query = testing::MakeGraph({0, 1, 0, 1}, {{0, 1}, {2, 3}});
  ASSERT_GT(query.NumComponents(), 1u);
  ExpectSameCandidates(serial.Filter(query), sharded.Filter(query), 3,
                       "disconnected");
}

TEST_F(FtvParallelFilterTest, AbsentLabelEmptiesEveryShard) {
  const GraphDataset ds = MakeCollection(2);
  GrapesOptions opts;
  opts.filter_shards = 4;
  opts.executor = exec_;
  GrapesIndex sharded(opts);
  ASSERT_TRUE(sharded.Build(ds).ok());
  // Label 1000 exists in no generated collection.
  const Graph query = testing::MakePath({1000, 1000});
  EXPECT_TRUE(sharded.Filter(query).empty());
}

TEST_F(FtvParallelFilterTest, DisplacedShardsFilterInlineAndStayIdentical) {
  // A capacity-0 pool rejects every range-build task: every shard trie is
  // built inline on the caller — and the filter must still be
  // byte-identical.
  Executor rejecting(
      ExecutorOptions{.num_threads = 1, .queue_capacity = 0});
  const GraphDataset ds = MakeCollection(4);
  GrapesIndex serial;
  ASSERT_TRUE(serial.Build(ds).ok());
  GrapesOptions opts;
  opts.filter_shards = 4;
  opts.executor = &rejecting;
  GrapesIndex sharded(opts);
  ASSERT_TRUE(sharded.Build(ds).ok());  // build shards went inline
  ASSERT_EQ(sharded.num_filter_shards(), 4u);
  for (const gen::Query& q : MakeQueries(ds, 4)) {
    ExpectSameCandidates(serial.Filter(q.graph), sharded.Filter(q.graph), 4,
                         "capacity-0");
  }
  PoolGauges g = rejecting.gauges();
  sharded.filter_stats().AddTo(&g);
  EXPECT_EQ(g.tasks_rejected, sharded.num_filter_shards());
  EXPECT_GT(g.filter_queries, 0u);
}

TEST_F(FtvParallelFilterTest, FilterGaugesCountPrunedCandidates) {
  const GraphDataset ds = MakeCollection(6);
  GrapesOptions opts;
  opts.filter_shards = 2;
  opts.executor = exec_;
  GrapesIndex sharded(opts);
  ASSERT_TRUE(sharded.Build(ds).ok());
  const auto queries = MakeQueries(ds, 6);
  ASSERT_FALSE(queries.empty());
  uint64_t survivors = 0;
  for (const gen::Query& q : queries) {
    survivors += sharded.Filter(q.graph).size();
  }
  PoolGauges g;
  sharded.filter_stats().AddTo(&g);
  EXPECT_EQ(g.filter_queries, queries.size());
  EXPECT_EQ(g.filter_candidates_in, queries.size() * ds.size());
  EXPECT_EQ(g.filter_candidates_pruned,
            queries.size() * ds.size() - survivors);
  EXPECT_GE(g.filter_prune_rate(), 0.0);
  EXPECT_FALSE(FormatFilterGauges(g).empty());
}

// ---- Concurrency stress (runs under TSan in CI) ------------------------

TEST_F(FtvParallelFilterTest, EightClientsHammerShardedFilterAndPoolRaces) {
  const GraphDataset ds = MakeCollection(8);
  GrapesOptions opts;
  opts.filter_shards = 4;
  opts.executor = exec_;
  GrapesIndex sharded(opts);
  ASSERT_TRUE(sharded.Build(ds).ok());
  const auto queries = MakeQueries(ds, 8);
  ASSERT_FALSE(queries.empty());
  // Ground truth per query, computed up front on one thread.
  std::vector<std::vector<GrapesCandidate>> truth;
  for (const auto& q : queries) truth.push_back(sharded.Filter(q.graph));

  // An NFV engine racing on the pool that built the shard tries.
  const Graph data = gen::YeastLike(/*scale=*/8, /*seed=*/881);
  PsiEngineOptions eo;
  eo.mode = RaceMode::kPool;
  eo.executor = exec_;
  PsiEngine engine(eo);
  engine.AddMatcher(std::make_unique<GraphQlMatcher>());
  engine.AddMatcher(std::make_unique<SPathMatcher>());
  ASSERT_TRUE(engine.Prepare(data).ok());
  auto nfv = gen::GenerateWorkload(data, /*count=*/4, /*num_edges=*/5,
                                   /*seed=*/882);
  ASSERT_TRUE(nfv.ok());
  std::vector<Result<bool>> nfv_truth;
  for (const auto& q : *nfv) nfv_truth.push_back(engine.Contains(q.graph));

  constexpr int kClients = 8;
  constexpr int kItersPerClient = 12;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int it = 0; it < kItersPerClient; ++it) {
        if ((c + it) % 2 == 0) {
          // Filter client.
          const size_t qi = (c + it) % queries.size();
          const auto got = sharded.Filter(queries[qi].graph);
          if (!(got.size() == truth[qi].size() &&
                std::equal(got.begin(), got.end(), truth[qi].begin()))) {
            mismatches.fetch_add(1);
          }
        } else {
          // Racing client on the shared pool.
          const size_t qi = (c + it) % nfv->size();
          const auto got = engine.Contains((*nfv)[qi].graph);
          if (got.ok() != nfv_truth[qi].ok() ||
              (got.ok() && *got != *nfv_truth[qi])) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  PoolGauges g = exec_->gauges();
  sharded.filter_stats().AddTo(&g);
  EXPECT_GT(g.filter_queries, 0u);
  EXPECT_GT(g.tasks_executed, 0u);
}

// ---- Parallel runner determinism ---------------------------------------

void ExpectSameRecords(const std::vector<FtvPairRecord>& serial,
                       const std::vector<FtvPairRecord>& parallel,
                       const char* what) {
  ASSERT_EQ(serial.size(), parallel.size()) << what;
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].query_index, parallel[i].query_index)
        << what << " record " << i;
    EXPECT_EQ(serial[i].graph_id, parallel[i].graph_id)
        << what << " record " << i;
    EXPECT_EQ(serial[i].matched, parallel[i].matched)
        << what << " record " << i;
    EXPECT_FALSE(parallel[i].killed) << what << " record " << i;
  }
}

TEST_F(FtvParallelFilterTest, PipelinedRunnerMatchesSerialUnderOverload) {
  const GraphDataset ds = MakeCollection(10);
  const LabelStats stats = LabelStats::FromGraphs(ds.graphs());
  const auto queries = MakeQueries(ds, 10);
  ASSERT_FALSE(queries.empty());
  const std::vector<Rewriting> rewritings = {Rewriting::kOriginal,
                                             Rewriting::kDnd};
  RunnerOptions ro;
  ro.cap_ms = 0.0;  // uncapped => record content exactly reproducible
  ro.max_embeddings = 1;

  GrapesIndex serial;
  ASSERT_TRUE(serial.Build(ds).ok());
  const auto base =
      RunFtvWorkloadPsi(serial, queries, rewritings, stats, ro,
                        RaceMode::kSequential);

  struct Config {
    const char* name;
    size_t queue_capacity;
    OverloadPolicy policy;
  };
  const Config configs[] = {
      {"unbounded", ExecutorOptions::kUnboundedQueue,
       OverloadPolicy::kRejectNew},
      {"cap2-reject", 2, OverloadPolicy::kRejectNew},
      {"cap2-shed", 2, OverloadPolicy::kShedLatestDeadline},
      {"cap0-overload", 0, OverloadPolicy::kRejectNew},
  };
  for (const Config& cfg : configs) {
    ExecutorOptions eo;
    eo.num_threads = 2;
    eo.queue_capacity = cfg.queue_capacity;
    eo.overload_policy = cfg.policy;
    Executor exec(eo);
    GrapesOptions go;
    go.filter_shards = 3;
    go.executor = &exec;
    GrapesIndex sharded(go);
    ASSERT_TRUE(sharded.Build(ds).ok());
    ASSERT_GT(sharded.num_filter_shards(), 1u);
    const auto par = RunFtvWorkloadPsiParallel(
        sharded, queries, rewritings, stats, ro, RaceMode::kPool, &exec);
    ExpectSameRecords(base, par, cfg.name);
  }
}

}  // namespace
}  // namespace psi
