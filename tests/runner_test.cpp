#include "workload/runner.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/env.hpp"
#include "fault/failpoint.hpp"
#include "gen/dataset_gen.hpp"
#include "graphql/graphql.hpp"
#include "spath/spath.hpp"
#include "tests/test_util.hpp"
#include "vf2/vf2.hpp"
#include "workload/table.hpp"

namespace psi {
namespace {

TEST(RunnerTest, RecordsPlantedQueriesAsMatched) {
  const Graph g = gen::YeastLike(8, 61);
  Vf2Matcher m;
  ASSERT_TRUE(m.Prepare(g).ok());
  auto w = gen::GenerateWorkload(g, 6, 6, 62);
  ASSERT_TRUE(w.ok());
  RunnerOptions ro;
  ro.cap_ms = 5000.0;
  ro.max_embeddings = 1;
  auto records = RunWorkload(m, *w, ro);
  ASSERT_EQ(records.size(), 6u);
  for (const auto& r : records) {
    EXPECT_TRUE(r.matched);
    EXPECT_FALSE(r.killed);
    EXPECT_GT(r.ms, 0.0);
    EXPECT_LT(r.ms, 5000.0);
  }
}

TEST(RunnerTest, KilledQueriesChargedTheCap) {
  // Unlabelled clique counting blows any 1ms budget.
  const Graph g = testing::MakeClique(std::vector<LabelId>(40, 0));
  Vf2Matcher m;
  ASSERT_TRUE(m.Prepare(g).ok());
  gen::Query q;
  q.graph = testing::MakeClique(std::vector<LabelId>(8, 0));
  RunnerOptions ro;
  ro.cap_ms = 1.0;
  ro.max_embeddings = UINT64_MAX;
  auto records = RunWorkload(m, std::vector<gen::Query>{q}, ro);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].killed);
  EXPECT_DOUBLE_EQ(records[0].ms, 1.0);  // charged exactly the cap
}

TEST(RunnerTest, PsiWorkloadCompletesWhereSingleVariantMay) {
  const Graph g = gen::YeastLike(8, 63);
  const LabelStats stats = LabelStats::FromGraph(g);
  GraphQlMatcher gql;
  ASSERT_TRUE(gql.Prepare(g).ok());
  auto w = gen::GenerateWorkload(g, 4, 8, 64);
  ASSERT_TRUE(w.ok());
  auto p = MakeRewritingPortfolio(gql, AllRewritings());
  RunnerOptions ro;
  ro.cap_ms = 5000.0;
  ro.max_embeddings = 1;
  auto records =
      RunWorkloadPsi(p, *w, stats, ro, RaceMode::kSequential);
  for (const auto& r : records) {
    EXPECT_TRUE(r.matched);
    EXPECT_FALSE(r.killed);
  }
}

TEST(RunnerTest, FtvRecordsCoverSourceGraphs) {
  gen::GraphGenLikeOptions o;
  o.num_graphs = 6;
  o.avg_nodes = 35;
  o.density = 0.09;
  o.num_labels = 5;
  o.seed = 66;
  auto ds = gen::GraphGenLike(o);
  GrapesIndex index;
  ASSERT_TRUE(index.Build(ds).ok());
  auto w = gen::GenerateWorkload(ds, 8, 5, 67);
  ASSERT_TRUE(w.ok());
  RunnerOptions ro;
  ro.cap_ms = 5000.0;
  auto records = RunFtvWorkload(index, *w, ro);
  ASSERT_FALSE(records.empty());
  // Every query's source graph must appear as a matched pair.
  for (uint32_t qi = 0; qi < w->size(); ++qi) {
    bool found = false;
    for (const auto& rec : records) {
      if (rec.query_index == qi && rec.graph_id == (*w)[qi].source_graph) {
        EXPECT_TRUE(rec.matched);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "query " << qi;
  }
}

TEST(RunnerTest, FtvPsiAgreesWithPlainFtv) {
  gen::GraphGenLikeOptions o;
  o.num_graphs = 5;
  o.avg_nodes = 30;
  o.density = 0.1;
  o.num_labels = 4;
  o.seed = 68;
  auto ds = gen::GraphGenLike(o);
  const LabelStats stats = LabelStats::FromGraphs(ds.graphs());
  GrapesIndex index;
  ASSERT_TRUE(index.Build(ds).ok());
  auto w = gen::GenerateWorkload(ds, 5, 5, 69);
  ASSERT_TRUE(w.ok());
  RunnerOptions ro;
  ro.cap_ms = 5000.0;
  auto plain = RunFtvWorkload(index, *w, ro);
  auto psi = RunFtvWorkloadPsi(index, *w, AllRewritings(), stats, ro,
                               RaceMode::kSequential);
  ASSERT_EQ(plain.size(), psi.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].matched, psi[i].matched)
        << "pair " << plain[i].query_index << "/" << plain[i].graph_id;
  }
}

TEST(RunnerTest, ParallelPsiWorkloadMatchesSerial) {
  const Graph g = gen::YeastLike(6, 70);
  const LabelStats stats = LabelStats::FromGraph(g);
  GraphQlMatcher gql;
  SPathMatcher spa;
  ASSERT_TRUE(gql.Prepare(g).ok());
  ASSERT_TRUE(spa.Prepare(g).ok());
  std::vector<const Matcher*> matchers = {&gql, &spa};
  std::vector<Rewriting> rewritings = {Rewriting::kOriginal, Rewriting::kDnd};
  auto p = MakeMultiAlgorithmPortfolio(matchers, rewritings);
  auto w = gen::GenerateWorkload(g, 12, 6, 71);
  ASSERT_TRUE(w.ok());
  RunnerOptions ro;
  ro.cap_ms = 10000.0;
  ro.max_embeddings = 1;
  Executor exec(4);
  auto serial = RunWorkloadPsi(p, *w, stats, ro, RaceMode::kPool, &exec);
  auto parallel =
      RunWorkloadPsiParallel(p, *w, stats, ro, RaceMode::kPool, &exec);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    // Records land in workload order with identical decisions; only the
    // measured times differ run to run.
    EXPECT_EQ(serial[i].matched, parallel[i].matched) << "query " << i;
    EXPECT_EQ(serial[i].killed, parallel[i].killed) << "query " << i;
  }
}

TEST(RunnerTest, ParallelFtvPsiMatchesSerialPairs) {
  gen::GraphGenLikeOptions o;
  o.num_graphs = 5;
  o.avg_nodes = 30;
  o.density = 0.1;
  o.num_labels = 4;
  o.seed = 72;
  auto ds = gen::GraphGenLike(o);
  const LabelStats stats = LabelStats::FromGraphs(ds.graphs());
  GrapesIndex index;
  ASSERT_TRUE(index.Build(ds).ok());
  auto w = gen::GenerateWorkload(ds, 5, 5, 73);
  ASSERT_TRUE(w.ok());
  RunnerOptions ro;
  ro.cap_ms = 10000.0;
  std::vector<Rewriting> rewritings = {Rewriting::kOriginal, Rewriting::kDnd};
  Executor exec(4);
  auto serial = RunFtvWorkloadPsi(index, *w, rewritings, stats, ro,
                                  RaceMode::kPool, &exec);
  auto parallel = RunFtvWorkloadPsiParallel(index, *w, rewritings, stats, ro,
                                            RaceMode::kPool, &exec);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].query_index, parallel[i].query_index) << "pair " << i;
    EXPECT_EQ(serial[i].graph_id, parallel[i].graph_id) << "pair " << i;
    EXPECT_EQ(serial[i].matched, parallel[i].matched) << "pair " << i;
    EXPECT_EQ(serial[i].killed, parallel[i].killed) << "pair " << i;
  }
}

/// Ten small GraphGen-like stored graphs; every FTV query below verifies
/// in microseconds.
GraphDataset SmallCollection() {
  gen::GraphGenLikeOptions o;
  o.num_graphs = 10;
  o.avg_nodes = 30;
  o.density = 0.08;
  o.num_labels = 5;
  o.seed = 905;
  return gen::GraphGenLike(o);
}

void ExpectSameFtvRecords(const std::vector<FtvPairRecord>& want,
                          const std::vector<FtvPairRecord>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].query_index, got[i].query_index) << "record " << i;
    EXPECT_EQ(want[i].graph_id, got[i].graph_id) << "record " << i;
    EXPECT_EQ(want[i].killed, got[i].killed) << "record " << i;
    EXPECT_EQ(want[i].matched, got[i].matched) << "record " << i;
    EXPECT_EQ(want[i].status, got[i].status) << "record " << i;
  }
}

TEST(RunnerTest, FtvRunnersCountFilteredQueriesOnASingleShardIndex) {
  const GraphDataset ds = SmallCollection();
  const LabelStats stats = LabelStats::FromGraphs(ds.graphs());
  GrapesIndex index;
  ASSERT_TRUE(index.Build(ds).ok());
  ASSERT_EQ(index.num_filter_shards(), 1u);
  auto w = gen::GenerateWorkload(ds, 3, 4, 906);
  ASSERT_TRUE(w.ok());
  RunnerOptions ro;
  ro.cap_ms = 5000.0;
  ro.max_embeddings = 1;
  Executor exec(2);
  const auto records = RunFtvWorkloadPsiParallel(
      index, *w, AllRewritings(), stats, ro, RaceMode::kPool, &exec);
  const uint64_t considered = w->size() * ds.size();
  PoolGauges g;
  index.filter_stats().AddTo(&g);
  EXPECT_EQ(g.filter_queries, w->size());
  EXPECT_EQ(g.filter_candidates_in, considered);
  EXPECT_EQ(g.filter_candidates_pruned, considered - records.size());
  // The serial runner counts its filter calls the same way.
  RunFtvWorkloadPsi(index, *w, AllRewritings(), stats, ro,
                    RaceMode::kSequential);
  PoolGauges g2;
  index.filter_stats().AddTo(&g2);
  EXPECT_EQ(g2.filter_candidates_in, 2 * considered);
  EXPECT_EQ(g2.filter_candidates_pruned, 2 * (considered - records.size()));
}

TEST(RunnerTest, FtvPairPlanProbesOnlyCappedPoolPairs) {
  RunnerOptions capped;
  capped.cap_ms = 250.0;
  RunnerOptions uncapped;
  uncapped.cap_ms = 0.0;
  // Every rewriting in one stage: the full race.
  const auto expect_full_race = [](const QueryPlan& plan) {
    ASSERT_EQ(plan.num_stages(), 1u);
    EXPECT_EQ(plan.escalation, EscalationPolicy::kNone);
    ASSERT_EQ(plan.stages[0].steps.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(plan.stages[0].steps[i].variant, i);
    }
  };
  expect_full_race(FtvPairPlan(3, capped, RaceMode::kSequential));
  expect_full_race(FtvPairPlan(3, capped, RaceMode::kThreads));
  expect_full_race(FtvPairPlan(3, uncapped, RaceMode::kPool));
  EXPECT_EQ(FtvPairPlan(1, capped, RaceMode::kPool).num_stages(), 1u);

  const QueryPlan staged = FtvPairPlan(3, capped, RaceMode::kPool);
  ASSERT_EQ(staged.num_stages(), 2u);
  EXPECT_EQ(staged.escalation, EscalationPolicy::kOnMiss);
  ASSERT_EQ(staged.stages[0].steps.size(), 1u);
  EXPECT_EQ(staged.stages[0].steps[0].variant, 0u);
  EXPECT_NEAR(static_cast<double>(staged.stages[0].budget.count()),
              capped.cap_ms * 1e6 *
                  static_cast<double>(PlanProbePercent()) / 100.0,
              1.0);
  EXPECT_EQ(staged.stages[1].steps.size(), 3u);
  EXPECT_EQ(staged.stages[1].budget.count(), 0);  // the pair's whole cap
}

TEST(RunnerTest, OneFtvQueryWhoseProbesHitSubmitsNoPoolTask) {
  const GraphDataset ds = SmallCollection();
  const LabelStats stats = LabelStats::FromGraphs(ds.graphs());
  GrapesOptions go;
  go.filter_shards = 4;  // the runner filters serially on any index
  Executor exec(2);
  go.executor = &exec;
  GrapesIndex index(go);
  ASSERT_TRUE(index.Build(ds).ok());
  auto w = gen::GenerateWorkload(ds, 1, 4, 906);
  ASSERT_TRUE(w.ok());
  RunnerOptions ro;
  ro.cap_ms = 5000.0;  // a 500 ms probe: every probe hits
  ro.max_embeddings = 1;
  const uint64_t submitted0 = exec.gauges().tasks_submitted;
  const auto records = RunFtvWorkloadPsiParallel(
      index, *w, AllRewritings(), stats, ro, RaceMode::kPool, &exec);
  EXPECT_EQ(exec.gauges().tasks_submitted, submitted0);
  ASSERT_FALSE(records.empty());
  for (const auto& r : records) {
    EXPECT_FALSE(r.killed);
    EXPECT_EQ(r.status, Status::Code::kOk);
  }
}

TEST(RunnerTest, SkippedOrCrashedFtvProbesKeepTheRecords) {
  if (!FaultsCompiledIn()) GTEST_SKIP() << "built with PSI_FAULTS=OFF";
  const GraphDataset ds = SmallCollection();
  const LabelStats stats = LabelStats::FromGraphs(ds.graphs());
  GrapesIndex index;
  ASSERT_TRUE(index.Build(ds).ok());
  auto w = gen::GenerateWorkload(ds, 3, 4, 906);
  ASSERT_TRUE(w.ok());
  RunnerOptions ro;
  ro.cap_ms = 5000.0;
  ro.max_embeddings = 1;
  Executor exec(2);
  const auto baseline = RunFtvWorkloadPsiParallel(
      index, *w, AllRewritings(), stats, ro, RaceMode::kPool, &exec);
  ASSERT_FALSE(baseline.empty());
  {
    // Every probe is skipped, so every pair races every rewriting on the
    // pool.
    FaultInjector inject("plan.probe=error:1", 921);
    const uint64_t submitted0 = exec.gauges().tasks_submitted;
    ExpectSameFtvRecords(
        baseline, RunFtvWorkloadPsiParallel(index, *w, AllRewritings(), stats,
                                            ro, RaceMode::kPool, &exec));
    EXPECT_GE(exec.gauges().tasks_submitted - submitted0,
              baseline.size() * AllRewritings().size());
  }
  {
    // The first probe crashes; its pair escalates to the full race.
    const uint64_t crashes0 = FaultStats::Instance().variant_crashes();
    FaultInjector inject("race.variant=throw:1:0:1", 922);
    ExpectSameFtvRecords(
        baseline, RunFtvWorkloadPsiParallel(index, *w, AllRewritings(), stats,
                                            ro, RaceMode::kPool, &exec));
    EXPECT_EQ(FaultStats::Instance().variant_crashes() - crashes0, 1u);
  }
}

TEST(RunnerTest, RecordStatusReportsOutcome) {
  // PR 10 satellite: every record carries the typed reason for its shape
  // — kOk when answered, kAborted when killed at the cap.
  const Graph g = gen::YeastLike(8, 71);
  Vf2Matcher m;
  ASSERT_TRUE(m.Prepare(g).ok());
  auto w = gen::GenerateWorkload(g, 3, 6, 72);
  ASSERT_TRUE(w.ok());
  RunnerOptions ro;
  ro.cap_ms = 5000.0;
  ro.max_embeddings = 1;
  for (const auto& r : RunWorkload(m, *w, ro)) {
    EXPECT_EQ(r.status, Status::Code::kOk);
  }
  const Graph hard_data = testing::MakeClique(std::vector<LabelId>(40, 0));
  Vf2Matcher hm;
  ASSERT_TRUE(hm.Prepare(hard_data).ok());
  gen::Query q;
  q.graph = testing::MakeClique(std::vector<LabelId>(8, 0));
  RunnerOptions hard;
  hard.cap_ms = 1.0;
  hard.max_embeddings = UINT64_MAX;
  const auto records = RunWorkload(hm, std::vector<gen::Query>{q}, hard);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, Status::Code::kAborted);
}

TEST(RunnerTest, DisplacedParallelRecordsAreNeverDropped) {
  // Regression (PR 10 satellite): a spawned query task that starts as
  // kShed *or* kCancelled must mark its slot displaced — a bare return
  // used to leave a default-constructed record behind. A zero-capacity
  // pool pushes everything through the displaced path.
  const Graph g = gen::YeastLike(8, 73);
  const LabelStats stats = LabelStats::FromGraph(g);
  GraphQlMatcher gql;
  ASSERT_TRUE(gql.Prepare(g).ok());
  auto w = gen::GenerateWorkload(g, 5, 6, 74);
  ASSERT_TRUE(w.ok());
  const auto portfolio = MakeRewritingPortfolio(gql, AllRewritings());
  ExecutorOptions xo;
  xo.num_threads = 2;
  xo.queue_capacity = 0;
  Executor exec(xo);
  RunnerOptions ro;
  ro.cap_ms = 5000.0;
  ro.max_embeddings = 1;
  const auto records = RunWorkloadPsiParallel(portfolio, *w, stats, ro,
                                              RaceMode::kPool, &exec);
  ASSERT_EQ(records.size(), w->size());
  for (const auto& r : records) {
    EXPECT_TRUE(r.matched);
    EXPECT_FALSE(r.killed);
    EXPECT_EQ(r.status, Status::Code::kOk);
  }
}

TEST(RunnerTest, ExtractorsAlign) {
  std::vector<QueryRecord> recs(3);
  recs[0].ms = 1.5;
  recs[1].killed = true;
  recs[1].ms = 250.0;
  recs[2].ms = 3.0;
  auto times = TimesOf(recs);
  auto killed = KilledOf(recs);
  EXPECT_EQ(times, (std::vector<double>{1.5, 250.0, 3.0}));
  EXPECT_EQ(killed, (std::vector<uint8_t>{0, 1, 0}));
}

TEST(TextTableTest, AlignsColumnsAndFormatsNumbers) {
  TextTable t;
  t.AddRow({"name", "value"});
  t.AddRow({"alpha", TextTable::Num(3.14159, 2)});
  t.AddRow({"b", "x"});
  std::ostringstream out;
  t.Print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);  // header underline
  EXPECT_EQ(TextTable::Num(2.0, 0), "2");
}

}  // namespace
}  // namespace psi
