// The chaos harness (ISSUE PR 10 headline): replays NFV and FTV
// workloads under randomized, seeded fault schedules (PSI_TEST_SEEDS
// seeds, default 100) and asserts the survival contract end to end:
//
//  * Answer-or-typed-error: every query either completes with the
//    correct answer or surfaces a typed Status (Aborted / Overloaded /
//    DeadlineExceeded / IOError) — never a hang, an escaped exception,
//    or a silently dropped record.
//  * Absorbed ⇒ identical: a schedule made only of absorbable faults
//    (spurious rejections, sheds, variant crashes, forced cache misses,
//    bounded delays) yields records identical to the fault-free run —
//    same killed/matched/embeddings/status stream, byte for byte.
//  * Exact gauge accounting: limit-bounded schedules move the fault_*
//    gauges by exactly the injected amount (injected == fires,
//    variant_crashes == crash-kind fires, retries == PSI_RETRY_MAX on a
//    hard-rejected race, watchdog_fires == torn-down races).
//  * Zero-fault identity: with the registry inactive the runners are
//    deterministic — two runs produce the same record stream.
//
// Covers all three index configurations of the paper's experiments: the
// NFV runner (single data graph), Grapes FTV (filter-sharded index,
// probe-first pair plans) and GGSX FTV (races assembled in-test — there
// is no Ψ-parallel GGSX runner). Runs under ASan and TSan in the CI chaos
// job.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/env.hpp"
#include "fault/failpoint.hpp"
#include "gen/dataset_gen.hpp"
#include "gen/query_gen.hpp"
#include "ggsx/ggsx.hpp"
#include "grapes/grapes.hpp"
#include "graphql/graphql.hpp"
#include "psi/engine.hpp"
#include "psi/portfolio.hpp"
#include "psi/racer.hpp"
#include "rewrite/rewrite_cache.hpp"
#include "tests/test_util.hpp"
#include "vf2/vf2.hpp"
#include "workload/runner.hpp"

namespace psi {
namespace {

int NumSeeds() { return static_cast<int>(EnvInt("PSI_TEST_SEEDS", 100)); }

/// setenv/unsetenv with restore — the retry/watchdog knobs are read live.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_ = true;
      old_ = old;
    }
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_, old_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

/// A randomized schedule over the *absorbable* sites only — the ones the
/// degradation ladder recovers from without changing answers. Probability
/// per site is 5-35%; roughly half the sites participate per seed.
std::string AbsorbableSchedule(uint64_t seed) {
  static const char* kSites[] = {
      "exec.admit=reject",   "exec.dequeue=shed", "exec.run=throw",
      "race.variant=throw",  "rewrite.lookup=miss", "steal.offer=error",
      "plan.probe=error",    "ftv.filter=throw",  "group.cancel=delay",
      "steal.pop=delay"};
  std::mt19937_64 rng(seed);
  std::string spec;
  for (const char* site : kSites) {
    if (rng() % 2 != 0) continue;
    const double prob = 0.05 + 0.30 * static_cast<double>(rng() % 100) / 100.0;
    char entry[96];
    std::snprintf(entry, sizeof(entry), "%s:%.2f", site, prob);
    if (!spec.empty()) spec += ",";
    spec += entry;
  }
  if (spec.empty()) spec = "exec.dequeue=shed:0.20";
  return spec;
}

void ExpectSameRecords(const std::vector<QueryRecord>& want,
                       const std::vector<QueryRecord>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].killed, got[i].killed) << "record " << i;
    EXPECT_EQ(want[i].matched, got[i].matched) << "record " << i;
    EXPECT_EQ(want[i].embeddings, got[i].embeddings) << "record " << i;
    EXPECT_EQ(want[i].status, got[i].status) << "record " << i;
  }
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

// ---------------------------------------------------------------------
// NFV leg: RunWorkloadPsiParallel over a single data graph, kPool.
// ---------------------------------------------------------------------

TEST(ChaosTest, NfvAbsorbedSchedulesPreserveAnswers) {
  if (!FaultsCompiledIn()) GTEST_SKIP() << "built with PSI_FAULTS=OFF";
  const Graph g = gen::YeastLike(8, 901);
  const LabelStats stats = LabelStats::FromGraph(g);
  GraphQlMatcher gql;
  ASSERT_TRUE(gql.Prepare(g).ok());
  auto w = gen::GenerateWorkload(g, 6, 6, 902);
  ASSERT_TRUE(w.ok());
  const Portfolio portfolio = MakeRewritingPortfolio(gql, AllRewritings());
  RunnerOptions ro;
  ro.cap_ms = 5000.0;  // planted queries finish far inside the cap, so
  ro.max_embeddings = 1;  // injected delays cannot flip the killed flag
  const auto baseline =
      RunWorkloadPsiParallel(portfolio, *w, stats, ro, RaceMode::kPool);
  for (const auto& r : baseline) {
    ASSERT_TRUE(r.matched);
    ASSERT_FALSE(r.killed);
    ASSERT_EQ(r.status, Status::Code::kOk);
  }
  const int seeds = NumSeeds();
  for (int s = 0; s < seeds; ++s) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(s);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " spec=" +
                 AbsorbableSchedule(seed));
    FaultInjector inject(AbsorbableSchedule(seed), seed);
    const auto chaotic =
        RunWorkloadPsiParallel(portfolio, *w, stats, ro, RaceMode::kPool);
    ExpectSameRecords(baseline, chaotic);
  }
}

TEST(ChaosTest, NfvZeroFaultScheduleIsDeterministic) {
  ASSERT_FALSE(FaultRegistry::Instance().active());
  const Graph g = gen::YeastLike(8, 903);
  const LabelStats stats = LabelStats::FromGraph(g);
  GraphQlMatcher gql;
  ASSERT_TRUE(gql.Prepare(g).ok());
  auto w = gen::GenerateWorkload(g, 6, 6, 904);
  ASSERT_TRUE(w.ok());
  const Portfolio portfolio = MakeRewritingPortfolio(gql, AllRewritings());
  RunnerOptions ro;
  ro.cap_ms = 5000.0;
  ro.max_embeddings = 1;
  const auto a =
      RunWorkloadPsiParallel(portfolio, *w, stats, ro, RaceMode::kPool);
  const auto b =
      RunWorkloadPsiParallel(portfolio, *w, stats, ro, RaceMode::kPool);
  ExpectSameRecords(a, b);
}

// ---------------------------------------------------------------------
// Grapes FTV leg: the query-cursor runner over a filter-sharded index,
// kPool.
// ---------------------------------------------------------------------

TEST(ChaosTest, FtvGrapesAbsorbedSchedulesPreserveRecords) {
  if (!FaultsCompiledIn()) GTEST_SKIP() << "built with PSI_FAULTS=OFF";
  gen::GraphGenLikeOptions o;
  o.num_graphs = 10;
  o.avg_nodes = 30;
  o.density = 0.08;
  o.num_labels = 5;
  o.seed = 905;
  const GraphDataset ds = gen::GraphGenLike(o);
  GrapesOptions go;
  go.filter_shards = 4;  // the runner still filters each query serially
  GrapesIndex index(go);
  ASSERT_TRUE(index.Build(ds).ok());
  ASSERT_GT(index.num_filter_shards(), 1u);
  auto w = gen::GenerateWorkload(ds, 3, 4, 906);
  ASSERT_TRUE(w.ok());
  const LabelStats stats = LabelStats::FromGraphs(ds.graphs());
  RunnerOptions ro;
  ro.cap_ms = 5000.0;
  ro.max_embeddings = 1;
  const auto rewritings = AllRewritings();
  RewriteCache baseline_cache;
  const auto baseline =
      RunFtvWorkloadPsiParallel(index, *w, rewritings, stats, ro,
                                RaceMode::kPool, nullptr, nullptr,
                                &baseline_cache);
  ASSERT_FALSE(baseline.empty());
  const int seeds = NumSeeds();
  for (int s = 0; s < seeds; ++s) {
    const uint64_t seed = 2000 + static_cast<uint64_t>(s);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " spec=" +
                 AbsorbableSchedule(seed));
    FaultInjector inject(AbsorbableSchedule(seed), seed);
    RewriteCache cache;  // fresh per run: forced misses stay run-local
    const auto chaotic =
        RunFtvWorkloadPsiParallel(index, *w, rewritings, stats, ro,
                                  RaceMode::kPool, nullptr, nullptr, &cache);
    ExpectSameFtvRecords(baseline, chaotic);
  }
}

// ---------------------------------------------------------------------
// GGSX FTV leg. There is no Ψ-parallel GGSX runner, so the harness
// assembles the per-(query, graph) verification races itself — one
// RaceVariant per rewriting over GgsxIndex::VerifyCandidate — and
// applies the runners' recovery contract by hand: a race lost to
// crashes re-runs once, sequentially, under suppression.
// ---------------------------------------------------------------------

TEST(ChaosTest, FtvGgsxRacesSurviveAbsorbableFaults) {
  if (!FaultsCompiledIn()) GTEST_SKIP() << "built with PSI_FAULTS=OFF";
  gen::GraphGenLikeOptions o;
  o.num_graphs = 8;
  o.avg_nodes = 30;
  o.density = 0.08;
  o.num_labels = 5;
  o.seed = 907;
  const GraphDataset ds = gen::GraphGenLike(o);
  GgsxIndex index;
  ASSERT_TRUE(index.Build(ds).ok());
  auto w = gen::GenerateWorkload(ds, 3, 4, 908);
  ASSERT_TRUE(w.ok());
  const LabelStats stats = LabelStats::FromGraphs(ds.graphs());
  const auto rewritings = AllRewritings();

  // Fault-free ground truth, serial.
  RunnerOptions ro;
  ro.cap_ms = 5000.0;
  const auto truth = RunFtvWorkload(index, *w, ro);
  std::map<std::pair<uint32_t, uint32_t>, bool> expect_matched;
  for (const auto& r : truth) {
    ASSERT_FALSE(r.killed);
    expect_matched[{r.query_index, r.graph_id}] = r.matched;
  }

  RewriteCache cache;
  auto race_pair = [&](uint32_t qi, uint32_t gid,
                       const RaceOptions& opts) -> RaceResult {
    const auto instances =
        cache.GetInstances((*w)[qi].graph, rewritings, stats);
    std::vector<RaceVariant> universe;
    universe.reserve(instances.size());
    for (size_t i = 0; i < instances.size(); ++i) {
      universe.push_back(RaceVariant{
          std::string(ToString(rewritings[i])),
          [&index, inst = instances[i], gid](const MatchOptions& mo) {
            return index.VerifyCandidate(inst->graph, gid, mo);
          }});
    }
    return Race(universe, opts);
  };

  RaceOptions base;
  base.budget = std::chrono::milliseconds(5000);
  base.max_embeddings = 1;
  base.mode = RaceMode::kPool;
  const int seeds = NumSeeds();
  for (int s = 0; s < seeds; ++s) {
    const uint64_t seed = 3000 + static_cast<uint64_t>(s);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " spec=" +
                 AbsorbableSchedule(seed));
    FaultInjector inject(AbsorbableSchedule(seed), seed);
    for (uint32_t qi = 0; qi < w->size(); ++qi) {
      for (uint32_t gid : index.Filter((*w)[qi].graph)) {
        RaceResult r = race_pair(qi, gid, base);
        if (!r.completed()) {
          // The runners' recovery step, applied by hand.
          FaultSuppressionScope suppress;
          RaceOptions seq = base;
          seq.mode = RaceMode::kSequential;
          r = race_pair(qi, gid, seq);
        }
        ASSERT_TRUE(r.completed()) << "qi=" << qi << " gid=" << gid;
        EXPECT_EQ(r.result.found(), expect_matched.at({qi, gid}))
            << "qi=" << qi << " gid=" << gid;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Exact gauge accounting.
// ---------------------------------------------------------------------

TEST(ChaosTest, CrashGaugesAccountExactly) {
  if (!FaultsCompiledIn()) GTEST_SKIP() << "built with PSI_FAULTS=OFF";
  const Graph g = gen::YeastLike(8, 909);
  const LabelStats stats = LabelStats::FromGraph(g);
  GraphQlMatcher gql;
  ASSERT_TRUE(gql.Prepare(g).ok());
  auto w = gen::GenerateWorkload(g, 6, 6, 910);
  ASSERT_TRUE(w.ok());
  const Portfolio portfolio = MakeRewritingPortfolio(gql, AllRewritings());
  RunnerOptions ro;
  ro.cap_ms = 5000.0;
  ro.max_embeddings = 1;
  const auto baseline =
      RunWorkloadPsi(portfolio, *w, stats, ro, RaceMode::kSequential);

  const uint64_t injected0 = FaultStats::Instance().injected();
  const uint64_t crashes0 = FaultStats::Instance().variant_crashes();
  // Exactly 3 fires, each a variant crash: sequential mode evaluates
  // race.variant once per (query, variant), far more than 3 times.
  FaultInjector inject("race.variant=throw:1:0:3", 911);
  const auto chaotic =
      RunWorkloadPsi(portfolio, *w, stats, ro, RaceMode::kSequential);
  EXPECT_EQ(FaultStats::Instance().injected() - injected0, 3u);
  EXPECT_EQ(FaultStats::Instance().variant_crashes() - crashes0, 3u);
  ExpectSameRecords(baseline, chaotic);
}

TEST(ChaosTest, RetryGaugeCountsBackoffsExactly) {
  if (!FaultsCompiledIn()) GTEST_SKIP() << "built with PSI_FAULTS=OFF";
  const Graph g = gen::YeastLike(8, 912);
  const LabelStats stats = LabelStats::FromGraph(g);
  GraphQlMatcher gql;
  ASSERT_TRUE(gql.Prepare(g).ok());
  auto w = gen::GenerateWorkload(g, 1, 6, 913);
  ASSERT_TRUE(w.ok());
  const Portfolio portfolio = MakeRewritingPortfolio(gql, AllRewritings());
  RunnerOptions ro;
  ro.cap_ms = 5000.0;
  ro.max_embeddings = 1;
  ScopedEnv retry_max("PSI_RETRY_MAX", "2");
  ScopedEnv retry_base("PSI_RETRY_BASE_MS", "1");
  const uint64_t retries0 = FaultStats::Instance().retries();
  // Admission rejects everything: attempts 1 and 2 fail fast and back
  // off (two NoteRetry), the final attempt falls back to sequential and
  // still answers the query.
  FaultInjector inject("exec.admit=reject:1", 914);
  const auto records =
      RunWorkloadPsi(portfolio, *w, stats, ro, RaceMode::kPool);
  EXPECT_EQ(FaultStats::Instance().retries() - retries0, 2u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].matched);
  EXPECT_EQ(records[0].status, Status::Code::kOk);
}

TEST(ChaosTest, WatchdogTearsDownWedgedRace) {
  // Watchdog machinery is always compiled (it guards against real wedges,
  // not only injected ones) — no FaultsCompiledIn gate.
  const auto wedged = [](const MatchOptions&) {
    // Cooperative slow body that ignores its deadline: sleeps well past
    // budget + grace, then reports an incomplete search.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    MatchResult r;
    r.complete = false;
    r.cancelled = true;
    return r;
  };
  const std::vector<RaceVariant> variants = {{"wedge-a", wedged},
                                             {"wedge-b", wedged}};
  RaceOptions ro;
  ro.budget = std::chrono::milliseconds(20);
  ro.mode = RaceMode::kPool;
  ro.watchdog_grace = std::chrono::milliseconds(20);
  const uint64_t fires0 = FaultStats::Instance().watchdog_fires();
  const RaceResult r = Race(variants, ro);
  EXPECT_FALSE(r.completed());
  EXPECT_TRUE(r.watchdog_fired);
  EXPECT_EQ(FaultStats::Instance().watchdog_fires() - fires0, 1u);
}

/// A matcher whose Match wedges: ignores its deadline, sleeps past
/// budget + grace, reports an incomplete (non-crashing) search.
class WedgeMatcher : public Matcher {
 public:
  std::string_view name() const override { return "WEDGE"; }
  Status Prepare(const Graph& data) override {
    data_ = &data;
    return Status::OK();
  }
  MatchResult Match(const Graph&, const MatchOptions&) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    MatchResult r;
    r.complete = false;
    r.cancelled = true;
    return r;
  }
  const Graph* data() const override { return data_; }

 private:
  const Graph* data_ = nullptr;
};

TEST(ChaosTest, WatchdogLossSurfacesAsDeadlineExceeded) {
  // End to end through the engine: a race the watchdog tears down maps
  // to Status::DeadlineExceeded, not Aborted/Overloaded, and the engine
  // stays serviceable afterwards.
  ScopedEnv grace("PSI_WATCHDOG_GRACE_MS", "20");
  const Graph g = gen::YeastLike(8, 920);
  PsiEngineOptions eo;
  eo.mode = RaceMode::kPool;
  eo.budget = std::chrono::milliseconds(20);
  PsiEngine engine(eo);
  engine.AddMatcher(std::make_unique<WedgeMatcher>());
  ASSERT_TRUE(engine.Prepare(g).ok());
  const auto r = engine.Contains(g);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kDeadlineExceeded)
      << r.status().ToString();
}

// ---------------------------------------------------------------------
// Answer-or-typed-error under harsher, non-absorbable schedules.
// ---------------------------------------------------------------------

TEST(ChaosTest, EngineSurfacesTypedErrorsUnderFaults) {
  if (!FaultsCompiledIn()) GTEST_SKIP() << "built with PSI_FAULTS=OFF";
  const Graph g = gen::YeastLike(8, 915);
  PsiEngineOptions eo;
  eo.mode = RaceMode::kPool;
  eo.budget = std::chrono::seconds(5);
  PsiEngine engine(eo);
  engine.AddMatcher(std::make_unique<GraphQlMatcher>());

  {
    FaultInjector inject("engine.prepare=error:1", 916);
    const Status st = engine.Prepare(g);
    EXPECT_EQ(st.code(), Status::Code::kIOError);
    // Unprepared but reusable: queries are typed-refused, not UB.
    const auto r = engine.Contains(g);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
  }
  ASSERT_TRUE(engine.Prepare(g).ok());

  auto w = gen::GenerateWorkload(g, 4, 6, 917);
  ASSERT_TRUE(w.ok());
  const int seeds = std::max(NumSeeds() / 10, 3);
  for (int s = 0; s < seeds; ++s) {
    const uint64_t seed = 4000 + static_cast<uint64_t>(s);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    // engine.run=error is NOT absorbable — it must surface as Aborted.
    FaultInjector inject(AbsorbableSchedule(seed) + ",engine.run=error:0.3",
                         seed);
    for (const auto& q : *w) {
      const auto r = engine.Contains(q.graph);
      if (r.ok()) {
        EXPECT_TRUE(*r);  // planted queries match when answered
      } else {
        const Status::Code c = r.status().code();
        EXPECT_TRUE(c == Status::Code::kAborted ||
                    c == Status::Code::kOverloaded ||
                    c == Status::Code::kDeadlineExceeded)
            << r.status().ToString();
      }
    }
  }
  // Injector gone: the same engine answers everything again.
  for (const auto& q : *w) {
    const auto r = engine.Contains(q.graph);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(*r);
  }
}

// ---------------------------------------------------------------------
// Satellite: StopToken cancellation during Prepare.
// ---------------------------------------------------------------------

TEST(ChaosTest, PrepareCancellationLeavesEngineReusable) {
  const Graph g = gen::YeastLike(8, 918);
  PsiEngine engine;
  engine.AddMatcher(std::make_unique<Vf2Matcher>());

  StopToken stop;
  stop.RequestStop();
  const Status st = engine.Prepare(g, &stop);
  EXPECT_EQ(st.code(), Status::Code::kAborted);
  const auto refused = engine.Contains(g);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), Status::Code::kInvalidArgument);

  // The same engine prepares cleanly once the token is reset.
  stop.Reset();
  ASSERT_TRUE(engine.Prepare(g, &stop).ok());
  const auto answered = engine.Contains(g);
  ASSERT_TRUE(answered.ok());
  EXPECT_TRUE(*answered);
}

TEST(ChaosTest, PrepareRacedAgainstCancellationIsAlwaysConsistent) {
  // Trip the token concurrently with Prepare: whichever side wins, the
  // engine must end in a coherent state — prepared and answering, or
  // Aborted and typed-refusing.
  const Graph g = gen::YeastLike(10, 919);
  for (int i = 0; i < 20; ++i) {
    PsiEngine engine;
    engine.AddMatcher(std::make_unique<Vf2Matcher>());
    engine.AddMatcher(std::make_unique<GraphQlMatcher>());
    StopToken stop;
    std::thread tripper([&stop, i] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * i));
      stop.RequestStop();
    });
    const Status st = engine.Prepare(g, &stop);
    tripper.join();
    if (st.ok()) {
      const auto r = engine.Contains(g);
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(*r);
    } else {
      EXPECT_EQ(st.code(), Status::Code::kAborted);
      const auto r = engine.Contains(g);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
    }
  }
}

}  // namespace
}  // namespace psi
