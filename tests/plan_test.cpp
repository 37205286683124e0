// The query-planning layer (src/plan/): QueryPlan execution, staged
// escalation, per-variant budgets, the QueryPlanner policy, the
// RewriteCache keying rules and bound — and the layer's load-bearing
// contract, held differentially across randomized seeds (PSI_TEST_SEEDS,
// default 100; CI's TSan job runs fewer):
//
//   staging and caching never change answers. The plan pipeline
//   (staged plans + rewrite cache, NFV engine path and Grapes/GGSX FTV
//   paths alike) returns answers identical to the legacy full-race
//   path — including under RaceMode::kPool on bounded executors with
//   capacity 0, reject-new and shed-latest-deadline policies.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/env.hpp"
#include "gen/dataset_gen.hpp"
#include "gen/query_gen.hpp"
#include "ggsx/ggsx.hpp"
#include "grapes/grapes.hpp"
#include "graphql/graphql.hpp"
#include "plan/plan.hpp"
#include "plan/planner.hpp"
#include "psi/engine.hpp"
#include "psi/portfolio.hpp"
#include "rewrite/rewrite_cache.hpp"
#include "spath/spath.hpp"
#include "tests/test_util.hpp"
#include "workload/runner.hpp"

namespace psi {
namespace {

using namespace std::chrono_literals;

int NumSeeds() { return static_cast<int>(EnvInt("PSI_TEST_SEEDS", 100)); }

// ---- synthetic variants (deadline/stop honouring, like real matchers) --

RaceVariant InstantVariant(std::string name, uint64_t count = 7) {
  return RaceVariant{std::move(name), [count](const MatchOptions&) {
                       MatchResult r;
                       r.complete = true;
                       r.embedding_count = count;
                       return r;
                     }};
}

/// Completes after `dur` of cooperative waiting, honouring deadline and
/// stop token like the library matchers do.
RaceVariant SlowVariant(std::string name, std::chrono::milliseconds dur,
                        uint64_t count = 7) {
  return RaceVariant{
      std::move(name), [dur, count](const MatchOptions& mo) {
        const auto start = Deadline::Clock::now();
        MatchResult r;
        for (;;) {
          if (Deadline::Clock::now() - start >= dur) {
            r.complete = true;
            r.embedding_count = count;
            break;
          }
          if (mo.deadline.Expired()) {
            r.timed_out = true;
            break;
          }
          if (mo.stop != nullptr && mo.stop->stop_requested()) {
            r.cancelled = true;
            break;
          }
          std::this_thread::sleep_for(200us);
        }
        r.elapsed = Deadline::Clock::now() - start;
        return r;
      }};
}

// ---- plan execution ----------------------------------------------------

TEST(PlanTest, FullRacePlanRacesEveryVariantOnce) {
  const QueryPlan plan = FullRacePlan(3);
  ASSERT_EQ(plan.stages.size(), 1u);
  EXPECT_EQ(plan.stages[0].steps.size(), 3u);

  std::vector<RaceVariant> universe = {InstantVariant("a", 1),
                                       InstantVariant("b", 1),
                                       InstantVariant("c", 1)};
  RaceOptions ro;
  ro.mode = RaceMode::kSequential;
  const PlanResult pr = ExecutePlan(plan, universe, ro);
  ASSERT_TRUE(pr.race.completed());
  EXPECT_EQ(pr.stages_run, 1u);
  EXPECT_EQ(pr.variant_runs, 3u);
  EXPECT_FALSE(pr.escalated);
  EXPECT_EQ(pr.race.workers.size(), 3u);
}

TEST(PlanTest, ProbeMissEscalatesToFullRaceAndKeepsTheAnswer) {
  // Probe = variant 0, too slow for the probe budget; the full race
  // includes an instant variant. The answer must come out of stage 1.
  std::vector<RaceVariant> universe = {SlowVariant("slow", 80ms, 3),
                                       InstantVariant("fast", 3)};
  QueryPlan plan;
  plan.escalation = EscalationPolicy::kOnMiss;
  plan.stages.push_back(PlanStage{{PlanStep{0, {}}},
                                  std::chrono::milliseconds(10)});
  plan.stages.push_back(PlanStage{{PlanStep{0, {}}, PlanStep{1, {}}},
                                  std::chrono::seconds(5)});

  RaceOptions ro;
  ro.mode = RaceMode::kSequential;
  const PlanResult pr = ExecutePlan(plan, universe, ro);
  ASSERT_TRUE(pr.race.completed());
  EXPECT_TRUE(pr.escalated);
  EXPECT_EQ(pr.stages_run, 2u);
  EXPECT_EQ(pr.race.winner, 1);
  EXPECT_EQ(pr.race.result.embedding_count, 3u);
  // wall includes the lost probe: total latency is what the client saw.
  EXPECT_GE(pr.race.wall, std::chrono::milliseconds(10));
}

TEST(PlanTest, ProbeHitSkipsTheFullRace) {
  std::vector<RaceVariant> universe = {InstantVariant("fast", 9),
                                       SlowVariant("slow", 200ms, 9)};
  QueryPlan plan;
  plan.escalation = EscalationPolicy::kOnMiss;
  plan.stages.push_back(PlanStage{{PlanStep{0, {}}},
                                  std::chrono::milliseconds(50)});
  plan.stages.push_back(PlanStage{{PlanStep{0, {}}, PlanStep{1, {}}},
                                  std::chrono::seconds(5)});
  RaceOptions ro;
  ro.mode = RaceMode::kSequential;
  const PlanResult pr = ExecutePlan(plan, universe, ro);
  ASSERT_TRUE(pr.race.completed());
  EXPECT_FALSE(pr.escalated);
  EXPECT_EQ(pr.stages_run, 1u);
  EXPECT_EQ(pr.variant_runs, 1u);  // the slow variant never ran
  EXPECT_EQ(pr.race.winner, 0);
}

TEST(PlanTest, EscalationPolicyNoneMakesTheStageOutcomeFinal) {
  std::vector<RaceVariant> universe = {SlowVariant("slow", 200ms)};
  QueryPlan plan;
  plan.escalation = EscalationPolicy::kNone;
  plan.stages.push_back(PlanStage{{PlanStep{0, {}}},
                                  std::chrono::milliseconds(5)});
  plan.stages.push_back(PlanStage{{PlanStep{0, {}}},
                                  std::chrono::seconds(5)});
  RaceOptions ro;
  ro.mode = RaceMode::kSequential;
  const PlanResult pr = ExecutePlan(plan, universe, ro);
  EXPECT_FALSE(pr.race.completed());
  EXPECT_EQ(pr.stages_run, 1u);
  EXPECT_FALSE(pr.escalated);
}

TEST(PlanTest, PerVariantBudgetCapsOnlyThatVariant) {
  // Sequential race: the override kills the slow variant at 10ms while
  // the other completes under the shared budget.
  std::vector<RaceVariant> variants = {SlowVariant("capped", 100ms),
                                       SlowVariant("free", 5ms)};
  RaceOptions ro;
  ro.mode = RaceMode::kSequential;
  ro.budget = std::chrono::seconds(5);
  ro.variant_budgets = {std::chrono::milliseconds(10),
                        std::chrono::nanoseconds(0)};
  const RaceResult r = Race(variants, ro);
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.winner, 1);
  EXPECT_TRUE(r.workers[0].result.timed_out);
  EXPECT_TRUE(r.workers[1].result.complete);
}

TEST(PlanTest, PerVariantBudgetHoldsInPoolMode) {
  Executor exec(2);
  std::vector<RaceVariant> variants = {SlowVariant("capped", 500ms),
                                       SlowVariant("winner", 5ms)};
  RaceOptions ro;
  ro.mode = RaceMode::kPool;
  ro.executor = &exec;
  ro.budget = std::chrono::seconds(5);
  ro.variant_budgets = {std::chrono::milliseconds(20),
                        std::chrono::nanoseconds(0)};
  const RaceResult r = Race(variants, ro);
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.winner, 1);
  // The capped variant was cancelled by the winner or timed out at its
  // own 20ms cap — it must not have run to its 500ms completion.
  EXPECT_FALSE(r.workers[0].result.complete);
}

// ---- rewrite cache -----------------------------------------------------

TEST(RewriteCacheTest, RepeatLookupsHitAndMatchDirectRewrite) {
  const Graph q = testing::MakeCycle({0, 1, 2, 1, 0, 2});
  const Graph stored = testing::MakeClique({0, 0, 1, 1, 2, 2, 2});
  const LabelStats stats = LabelStats::FromGraph(stored);
  RewriteCache cache;

  const auto a = cache.Get(q, Rewriting::kIlf, stats);
  const auto b = cache.Get(q, Rewriting::kIlf, stats);
  EXPECT_EQ(a.get(), b.get());  // same memoized entry
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  const auto direct = RewriteQuery(q, Rewriting::kIlf, stats);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(a->new_id_of, direct->new_id_of);
  EXPECT_TRUE(a->graph.IdenticalTo(direct->graph));
}

TEST(RewriteCacheTest, IlfEntriesNeverCrossStatsIdentities) {
  const Graph q = testing::MakePath({0, 1, 2});
  // Two stored graphs with opposite label-frequency orderings: ILF must
  // be keyed per stats identity and produce the per-stats permutation.
  const Graph rare0 = testing::MakeClique({0, 1, 1, 1, 2, 2});
  const Graph rare2 = testing::MakeClique({0, 0, 1, 1, 1, 2});
  const LabelStats stats0 = LabelStats::FromGraph(rare0);
  const LabelStats stats2 = LabelStats::FromGraph(rare2);
  ASSERT_NE(stats0.identity(), stats2.identity());

  RewriteCache cache;
  const auto a = cache.Get(q, Rewriting::kIlf, stats0);
  const auto b = cache.Get(q, Rewriting::kIlf, stats2);
  EXPECT_EQ(cache.stats().misses, 2u);  // two entries, no crossing
  EXPECT_EQ(cache.stats().hits, 0u);
  const auto da = RewriteQuery(q, Rewriting::kIlf, stats0);
  const auto db = RewriteQuery(q, Rewriting::kIlf, stats2);
  ASSERT_TRUE(da.ok() && db.ok());
  EXPECT_EQ(a->new_id_of, da->new_id_of);
  EXPECT_EQ(b->new_id_of, db->new_id_of);
}

TEST(RewriteCacheTest, StatsIndependentRewritingsShareAcrossStats) {
  const Graph q = testing::MakeStar({0, 1, 2, 1});
  const LabelStats stats0 =
      LabelStats::FromGraph(testing::MakeClique({0, 1, 1, 1, 2, 2}));
  const LabelStats stats2 =
      LabelStats::FromGraph(testing::MakeClique({0, 0, 1, 1, 1, 2}));
  RewriteCache cache;
  for (Rewriting r :
       {Rewriting::kOriginal, Rewriting::kInd, Rewriting::kDnd}) {
    const auto a = cache.Get(q, r, stats0);
    const auto b = cache.Get(q, r, stats2);
    EXPECT_EQ(a.get(), b.get()) << ToString(r);
  }
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 3u);
}

TEST(RewriteCacheTest, DistinctQueriesGetDistinctEntries) {
  const LabelStats stats =
      LabelStats::FromGraph(testing::MakeClique({0, 1, 2}));
  RewriteCache cache;
  const auto a = cache.Get(testing::MakePath({0, 1, 2}),
                           Rewriting::kDnd, stats);
  const auto b = cache.Get(testing::MakePath({0, 2, 1}),
                           Rewriting::kDnd, stats);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 2u);
}

// The i-th of a family of pairwise distinct queries.
Graph DistinctQuery(uint32_t i) {
  return testing::MakePath({i, i / 3, 7});
}

TEST(RewriteCacheTest, DistinctQueryStreamStaysWithinCapacity) {
  const LabelStats stats =
      LabelStats::FromGraph(testing::MakeClique({0, 1, 2}));
  RewriteCache cache;
  constexpr uint32_t kQueries = 3 * RewriteCache::kCapacity;
  for (uint32_t i = 0; i < kQueries; ++i) {
    cache.Get(DistinctQuery(i), Rewriting::kDnd, stats);
    ASSERT_LE(cache.size(), RewriteCache::kCapacity) << "i=" << i;
  }
  const RewriteCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, kQueries);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_GT(s.evictions, 0u);
  // Every entry is either still held or was counted out.
  EXPECT_EQ(s.evictions + cache.size(), kQueries);
}

TEST(RewriteCacheTest, RefetchWithinCapacityHits) {
  const LabelStats stats =
      LabelStats::FromGraph(testing::MakeClique({0, 1, 2}));
  RewriteCache cache;
  const Graph hot = DistinctQuery(0);
  const auto first = cache.Get(hot, Rewriting::kDnd, stats);
  // The hot query comes back once per half a capacity of new queries.
  // From the second round on its generation has turned old by then: the
  // lookup hits and moves it back to the young generation, so it outlives
  // every rotation.
  uint32_t next = 1;
  for (int round = 0; round < 6; ++round) {
    for (size_t k = 0; k + 1 < RewriteCache::kCapacity / 2; ++k) {
      cache.Get(DistinctQuery(next++), Rewriting::kDnd, stats);
    }
    const uint64_t hits = cache.stats().hits;
    EXPECT_EQ(cache.Get(hot, Rewriting::kDnd, stats).get(), first.get())
        << "round " << round;
    EXPECT_EQ(cache.stats().hits, hits + 1) << "round " << round;
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(RewriteCacheTest, EntryHeldAcrossItsEvictionStaysValid) {
  const LabelStats stats =
      LabelStats::FromGraph(testing::MakeClique({0, 1, 2}));
  RewriteCache cache;
  const Graph q = testing::MakeStar({0, 1, 2, 1});
  const auto held = cache.Get(q, Rewriting::kDnd, stats);
  const Graph copy = held->graph;
  for (uint32_t i = 0; i < 2 * RewriteCache::kCapacity; ++i) {
    cache.Get(DistinctQuery(i), Rewriting::kDnd, stats);
  }
  ASSERT_GT(cache.stats().evictions, 0u);
  // The entry left the cache: the next lookup misses and computes a new
  // one, while the held pointer still reads the old entry.
  const uint64_t misses = cache.stats().misses;
  const auto again = cache.Get(q, Rewriting::kDnd, stats);
  EXPECT_EQ(cache.stats().misses, misses + 1);
  EXPECT_NE(again.get(), held.get());
  EXPECT_TRUE(held->graph.IdenticalTo(copy));
  EXPECT_TRUE(again->graph.IdenticalTo(copy));
}

TEST(RewriteCacheTest, ConcurrentOverlappingStreamsStayConsistent) {
  const LabelStats stats =
      LabelStats::FromGraph(testing::MakeClique({0, 1, 2}));
  RewriteCache cache;
  // Four threads walk overlapping windows of one query family, which is
  // larger than the capacity, so lookups hit, miss, promote and evict
  // concurrently. Every returned entry must be the query's rewriting.
  constexpr uint32_t kPerThread = RewriteCache::kCapacity;
  constexpr uint32_t kStride = RewriteCache::kCapacity / 4;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (uint32_t k = 0; k < kPerThread; ++k) {
        const Graph q = DistinctQuery(t * kStride + k % (3 * kStride));
        const auto direct = RewriteQuery(q, Rewriting::kDnd, stats);
        const auto got = cache.Get(q, Rewriting::kDnd, stats);
        if (!direct.ok() || !got->graph.IdenticalTo(direct->graph)) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  const RewriteCache::Stats s = cache.stats();
  EXPECT_EQ(s.lookups(), 4u * kPerThread);
  EXPECT_LE(cache.size(), RewriteCache::kCapacity);
}

// ---- planner policy ----------------------------------------------------

struct PlannerFixture {
  Graph data = testing::MakeClique({0, 0, 1, 1, 2, 2, 3, 3});
  GraphQlMatcher gql;
  SPathMatcher spa;
  LabelStats stats;
  Portfolio portfolio;

  PlannerFixture() {
    EXPECT_TRUE(gql.Prepare(data).ok());
    EXPECT_TRUE(spa.Prepare(data).ok());
    stats = LabelStats::FromGraph(data);
    const Matcher* matchers[] = {&gql, &spa};
    const Rewriting rewritings[] = {Rewriting::kOriginal, Rewriting::kIlf,
                                    Rewriting::kDnd};
    portfolio = MakeMultiAlgorithmPortfolio(matchers, rewritings);
  }
};

TEST(QueryPlannerTest, ColdPlansAreSingleStageFullRaces) {
  PlannerFixture f;
  QueryPlannerOptions po;
  po.budget = std::chrono::seconds(1);
  po.staged = true;
  QueryPlanner planner;
  planner.Configure(&f.portfolio, &f.stats, po);

  const Graph q = testing::MakePath({0, 1, 2});
  const QueryPlan plan = planner.Plan(q);
  EXPECT_FALSE(plan.warm);
  ASSERT_EQ(plan.stages.size(), 1u);
  EXPECT_EQ(plan.stages[0].steps.size(), f.portfolio.entries.size());
}

TEST(QueryPlannerTest, WarmStagedPlanProbesThePredictedWinner) {
  PlannerFixture f;
  QueryPlannerOptions po;
  po.budget = std::chrono::milliseconds(400);
  po.staged = true;
  po.probe_fraction = 0.1;
  po.min_samples = 4;
  QueryPlanner planner;
  planner.Configure(&f.portfolio, &f.stats, po);

  const Graph q = testing::MakePath({0, 1, 2});
  const QueryFeatures features = ExtractFeatures(q, f.stats);
  for (int i = 0; i < 6; ++i) planner.Observe(features, 3);

  const QueryPlan plan = planner.Plan(q);
  EXPECT_TRUE(plan.warm);
  ASSERT_EQ(plan.stages.size(), 2u);
  ASSERT_EQ(plan.stages[0].steps.size(), 1u);
  EXPECT_EQ(plan.stages[0].steps[0].variant, 3u);  // the observed winner
  EXPECT_EQ(plan.stages[0].budget, std::chrono::milliseconds(40));
  EXPECT_EQ(plan.stages[1].steps.size(), f.portfolio.entries.size());
  EXPECT_EQ(plan.escalation, EscalationPolicy::kOnMiss);
  EXPECT_FALSE(FormatPlan(plan, f.portfolio).empty());
}

TEST(QueryPlannerTest, PortfolioLimitNarrowsTheWarmFullStage) {
  PlannerFixture f;
  QueryPlannerOptions po;
  po.budget = std::chrono::seconds(1);
  po.portfolio_limit = 2;
  po.min_samples = 4;
  QueryPlanner planner;
  planner.Configure(&f.portfolio, &f.stats, po);

  const Graph q = testing::MakePath({0, 1, 2});
  const QueryFeatures features = ExtractFeatures(q, f.stats);
  const QueryPlan cold = planner.Plan(q);
  EXPECT_EQ(cold.final_stage_size(), f.portfolio.entries.size());
  for (int i = 0; i < 6; ++i) planner.Observe(features, 1);
  const QueryPlan warm = planner.Plan(q);
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(warm.final_stage_size(), 2u);
  EXPECT_EQ(warm.stages.back().steps[0].variant, 1u);
}

TEST(QueryPlannerTest, StagingRequiresAPositiveBudget) {
  PlannerFixture f;
  QueryPlannerOptions po;  // budget stays 0 (uncapped)
  po.staged = true;
  po.min_samples = 1;
  QueryPlanner planner;
  planner.Configure(&f.portfolio, &f.stats, po);
  const Graph q = testing::MakePath({0, 1, 2});
  planner.Observe(ExtractFeatures(q, f.stats), 0);
  planner.Observe(ExtractFeatures(q, f.stats), 0);
  EXPECT_EQ(planner.Plan(q).stages.size(), 1u);  // no probe to derive
}

TEST(QueryPlannerTest, EnvKnobsFeedOptionDefaults) {
  // Pin the knobs for the duration; restore the shell's values after.
  auto pin = [](const char* name, const char* value,
                std::string* saved, bool* had) {
    const char* old = std::getenv(name);
    *had = old != nullptr;
    if (*had) *saved = old;
    setenv(name, value, 1);
  };
  std::string s1, s2, s3;
  bool h1 = false, h2 = false, h3 = false;
  pin("PSI_PLAN_STAGED", "1", &s1, &h1);
  pin("PSI_PLAN_PROBE_PCT", "25", &s2, &h2);
  pin("PSI_PLAN_MIN_SAMPLES", "3", &s3, &h3);

  const QueryPlannerOptions po = QueryPlannerOptions::FromEnv();
  EXPECT_TRUE(po.staged);
  EXPECT_DOUBLE_EQ(po.probe_fraction, 0.25);
  EXPECT_EQ(po.min_samples, 3u);

  PsiEngineOptions eo;
  EXPECT_TRUE(eo.staged);
  EXPECT_DOUBLE_EQ(eo.probe_fraction, 0.25);
  EXPECT_EQ(eo.plan_min_samples, 3u);

  auto restore = [](const char* name, const std::string& saved, bool had) {
    if (had) {
      setenv(name, saved.c_str(), 1);
    } else {
      unsetenv(name);
    }
  };
  restore("PSI_PLAN_STAGED", s1, h1);
  restore("PSI_PLAN_PROBE_PCT", s2, h2);
  restore("PSI_PLAN_MIN_SAMPLES", s3, h3);
}

// ---- randomized differential harness -----------------------------------

/// Small generated stored graph, deterministic per seed.
Graph MakeStored(uint64_t seed) {
  gen::GraphGenLikeOptions o;
  o.num_graphs = 1;
  o.avg_nodes = 90 + static_cast<uint32_t>(seed % 5) * 15;  // 90..150
  o.density = 0.06 + 0.01 * static_cast<double>(seed % 4);
  o.num_labels = 5 + static_cast<uint32_t>(seed % 6);
  o.seed = seed * 9176 + 11;
  return gen::GraphGenLike(o).graph(0);
}

/// Small generated collection for the FTV paths.
GraphDataset MakeCollection(uint64_t seed) {
  gen::GraphGenLikeOptions o;
  o.num_graphs = 8 + static_cast<uint32_t>(seed % 4) * 3;  // 8..17
  o.avg_nodes = 28 + static_cast<uint32_t>(seed % 5) * 6;
  o.density = 0.07 + 0.01 * static_cast<double>(seed % 4);
  o.num_labels = 4 + static_cast<uint32_t>(seed % 5);
  o.seed = seed * 6389 + 5;
  return gen::GraphGenLike(o);
}

struct Answer {
  bool killed = false;
  bool matched = false;
  uint64_t embeddings = 0;
  bool operator==(const Answer&) const = default;
};

Answer AnswerOf(const RaceResult& r) {
  Answer a;
  a.killed = !r.completed();
  a.matched = r.completed() && r.result.found();
  a.embeddings = r.completed() ? r.result.embedding_count : 0;
  return a;
}

TEST(PlanDifferentialTest, NfvStagedCachedPipelineMatchesLegacyFullRace) {
  const int seeds = NumSeeds();
  for (int seed = 0; seed < seeds; ++seed) {
    const Graph data = MakeStored(static_cast<uint64_t>(seed));
    GraphQlMatcher gql;
    SPathMatcher spa;
    ASSERT_TRUE(gql.Prepare(data).ok());
    ASSERT_TRUE(spa.Prepare(data).ok());
    const LabelStats stats = LabelStats::FromGraph(data);
    const Matcher* matchers[] = {&gql, &spa};
    const Rewriting rewritings[] = {Rewriting::kOriginal, Rewriting::kIlf,
                                    Rewriting::kDnd};
    const Portfolio portfolio =
        MakeMultiAlgorithmPortfolio(matchers, rewritings);

    auto w = gen::GenerateWorkload(data, /*count=*/4,
                                   4 + static_cast<uint32_t>(seed % 4),
                                   static_cast<uint64_t>(seed) * 104173);
    ASSERT_TRUE(w.ok()) << "seed=" << seed;

    RaceOptions base;
    base.budget = std::chrono::seconds(5);  // generous: nothing killed
    base.max_embeddings = 50;
    base.mode = RaceMode::kSequential;

    // Legacy ground truth: the classic full race.
    std::vector<Answer> legacy;
    for (const gen::Query& q : *w) {
      legacy.push_back(
          AnswerOf(RunPortfolio(portfolio, q.graph, stats, base)));
    }

    // Plan pipeline: staged planner + rewrite cache, warmed by the first
    // pass (cold full-race plans) then staged on the second.
    QueryPlannerOptions po;
    po.budget = base.budget;
    po.staged = true;
    po.probe_fraction = 0.05;
    po.min_samples = 2;
    QueryPlanner planner;
    planner.Configure(&portfolio, &stats, po);
    RewriteCache cache;
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t qi = 0; qi < w->size(); ++qi) {
        const QueryPlan plan = planner.Plan((*w)[qi].graph);
        const PlanResult pr = ExecutePortfolioPlan(
            plan, portfolio, (*w)[qi].graph, stats, base, &cache);
        if (pr.race.completed()) {
          planner.Observe(plan.features,
                          static_cast<size_t>(pr.race.winner));
        }
        EXPECT_EQ(AnswerOf(pr.race), legacy[qi])
            << "seed=" << seed << " pass=" << pass << " query=" << qi;
      }
    }

    // kPool on bounded executors: capacity-0 reject, tiny-capacity shed.
    for (const auto policy : {OverloadPolicy::kRejectNew,
                              OverloadPolicy::kShedLatestDeadline}) {
      ExecutorOptions eo;
      eo.num_threads = 2;
      eo.queue_capacity =
          policy == OverloadPolicy::kRejectNew ? 0 : 2;
      eo.overload_policy = policy;
      Executor exec(eo);
      RaceOptions pool = base;
      pool.mode = RaceMode::kPool;
      pool.executor = &exec;
      for (size_t qi = 0; qi < w->size(); ++qi) {
        const QueryPlan plan = planner.Plan((*w)[qi].graph);
        const PlanResult pr = ExecutePortfolioPlan(
            plan, portfolio, (*w)[qi].graph, stats, pool, &cache);
        EXPECT_EQ(AnswerOf(pr.race), legacy[qi])
            << "seed=" << seed << " policy=" << ToString(policy)
            << " query=" << qi;
      }
    }
  }
}

TEST(PlanDifferentialTest, FtvGrapesPlannedRunnerMatchesLegacyRecords) {
  const int seeds = NumSeeds();
  const Rewriting rewritings[] = {Rewriting::kIlf, Rewriting::kInd,
                                  Rewriting::kDnd};
  for (int seed = 0; seed < seeds; ++seed) {
    const GraphDataset dataset = MakeCollection(static_cast<uint64_t>(seed));
    const LabelStats stats = LabelStats::FromGraphs(dataset.graphs());
    auto w = gen::GenerateWorkload(dataset, /*count=*/3,
                                   3 + static_cast<uint32_t>(seed % 3),
                                   static_cast<uint64_t>(seed) * 7121 + 9);
    ASSERT_TRUE(w.ok()) << "seed=" << seed;

    ExecutorOptions eo;
    eo.num_threads = 2;
    // Rotate the admission-control regime with the seed: unbounded,
    // capacity-0 reject (everything displaced inline), tiny-capacity
    // shed.
    if (seed % 3 == 1) {
      eo.queue_capacity = 0;
      eo.overload_policy = OverloadPolicy::kRejectNew;
    } else if (seed % 3 == 2) {
      eo.queue_capacity = 3;
      eo.overload_policy = OverloadPolicy::kShedLatestDeadline;
    }
    Executor exec(eo);

    GrapesOptions go;
    go.filter_shards = 1 + static_cast<uint32_t>(seed % 3);  // 1..3
    go.executor = &exec;
    GrapesIndex index(go);
    ASSERT_TRUE(index.Build(dataset).ok()) << "seed=" << seed;

    RunnerOptions options;
    options.cap_ms = 5000.0;  // generous: nothing killed
    options.max_embeddings = 1;

    // Legacy ground truth: serial runner, sequential races, no planner,
    // no cache.
    const auto legacy = RunFtvWorkloadPsi(index, *w, rewritings, stats,
                                          options, RaceMode::kSequential);

    // Plan pipeline: pool races on the bounded executor, staged planner
    // (warmed by a serial pass) and a shared rewrite cache.
    const Portfolio universe = MakeFtvVerificationPortfolio(rewritings);
    QueryPlannerOptions po;
    po.budget = std::chrono::seconds(5);
    po.staged = true;
    po.min_samples = 2;
    QueryPlanner planner;
    planner.Configure(&universe, &stats, po);
    RewriteCache cache;
    const auto warmup =
        RunFtvWorkloadPsi(index, *w, rewritings, stats, options,
                          RaceMode::kSequential, nullptr, &planner, &cache);
    ASSERT_EQ(warmup.size(), legacy.size());
    const auto planned = RunFtvWorkloadPsiParallel(
        index, *w, rewritings, stats, options, RaceMode::kPool, &exec,
        &planner, &cache);

    ASSERT_EQ(planned.size(), legacy.size()) << "seed=" << seed;
    for (size_t i = 0; i < legacy.size(); ++i) {
      EXPECT_EQ(planned[i].query_index, legacy[i].query_index)
          << "seed=" << seed << " i=" << i;
      EXPECT_EQ(planned[i].graph_id, legacy[i].graph_id)
          << "seed=" << seed << " i=" << i;
      EXPECT_EQ(planned[i].matched, legacy[i].matched)
          << "seed=" << seed << " i=" << i;
      EXPECT_EQ(planned[i].killed, legacy[i].killed)
          << "seed=" << seed << " i=" << i;
    }
    // The cache rewrote each surviving query once, not once per pair.
    EXPECT_LE(cache.stats().misses,
              w->size() * std::size(rewritings))
        << "seed=" << seed;
  }
}

TEST(PlanDifferentialTest, FtvGgsxPlannedPairsMatchLegacyRaces) {
  const int seeds = NumSeeds();
  const Rewriting rewritings[] = {Rewriting::kIlf, Rewriting::kInd,
                                  Rewriting::kDnd};
  for (int seed = 0; seed < seeds; ++seed) {
    const GraphDataset dataset =
        MakeCollection(static_cast<uint64_t>(seed) + 51);
    const LabelStats stats = LabelStats::FromGraphs(dataset.graphs());
    auto w = gen::GenerateWorkload(dataset, /*count=*/2,
                                   3 + static_cast<uint32_t>(seed % 3),
                                   static_cast<uint64_t>(seed) * 3347 + 1);
    ASSERT_TRUE(w.ok()) << "seed=" << seed;

    GgsxIndex index;
    ASSERT_TRUE(index.Build(dataset).ok()) << "seed=" << seed;

    const Portfolio universe = MakeFtvVerificationPortfolio(rewritings);
    QueryPlannerOptions po;
    po.budget = std::chrono::seconds(5);
    po.staged = true;
    po.min_samples = 1;
    QueryPlanner planner;
    planner.Configure(&universe, &stats, po);
    RewriteCache cache;

    RaceOptions ro;
    ro.budget = std::chrono::seconds(5);
    ro.max_embeddings = 1;
    ro.mode = RaceMode::kSequential;

    for (int pass = 0; pass < 2; ++pass) {  // pass 1 runs warm (staged)
      for (uint32_t qi = 0; qi < w->size(); ++qi) {
        const Graph& query = (*w)[qi].graph;
        const QueryPlan plan = planner.Plan(query);
        const auto instances =
            cache.GetInstances(query, rewritings, stats);
        for (uint32_t gid : index.Filter(query)) {
          // Legacy: full race over freshly rewritten instances.
          std::vector<RaceVariant> legacy_variants;
          std::vector<RewrittenQuery> fresh;
          for (Rewriting r : rewritings) {
            auto rq = RewriteQuery(query, r, stats);
            ASSERT_TRUE(rq.ok());
            fresh.push_back(std::move(rq).value());
          }
          for (const auto& inst : fresh) {
            legacy_variants.push_back(RaceVariant{
                std::string(ToString(inst.rewriting)),
                [&index, &inst, gid](const MatchOptions& mo) {
                  return index.VerifyCandidate(inst.graph, gid, mo);
                }});
          }
          const Answer legacy = AnswerOf(Race(legacy_variants, ro));

          // Planned: staged plan over cached instances.
          std::vector<RaceVariant> variants;
          for (size_t vi = 0; vi < instances.size(); ++vi) {
            variants.push_back(RaceVariant{
                std::string(ToString(rewritings[vi])),
                [&index, inst = instances[vi], gid](const MatchOptions& mo) {
                  return index.VerifyCandidate(inst->graph, gid, mo);
                }});
          }
          const PlanResult pr = ExecutePlan(plan, variants, ro);
          if (pr.race.completed()) {
            planner.Observe(plan.features,
                            static_cast<size_t>(pr.race.winner));
          }
          EXPECT_EQ(AnswerOf(pr.race), legacy)
              << "seed=" << seed << " pass=" << pass << " q=" << qi
              << " gid=" << gid;
        }
      }
    }
  }
}

TEST(PlanDifferentialTest, EngineStagedMatchesEngineUnstagedAnswers) {
  // End-to-end through PsiEngine: a staged engine and a classic engine
  // must agree on every Contains/CountEmbeddings answer of a stream.
  const Graph data = MakeStored(7);
  auto w = gen::GenerateWorkload(data, /*count=*/16, 5, 424242);
  ASSERT_TRUE(w.ok());

  auto make_engine = [&](bool staged) {
    PsiEngineOptions o;
    o.budget = std::chrono::seconds(5);
    o.max_embeddings = 100;
    o.mode = RaceMode::kSequential;
    o.rewritings = {Rewriting::kOriginal, Rewriting::kIlf, Rewriting::kDnd};
    o.staged = staged;
    o.probe_fraction = 0.05;
    o.plan_min_samples = 4;
    auto e = std::make_unique<PsiEngine>(o);
    e->AddMatcher(std::make_unique<GraphQlMatcher>());
    e->AddMatcher(std::make_unique<SPathMatcher>());
    EXPECT_TRUE(e->Prepare(data).ok());
    return e;
  };
  auto classic = make_engine(false);
  auto staged = make_engine(true);

  for (int pass = 0; pass < 2; ++pass) {  // second pass runs warm plans
    for (const gen::Query& q : *w) {
      const auto a = classic->CountEmbeddings(q.graph);
      const auto b = staged->CountEmbeddings(q.graph);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(*a, *b);
      const auto ca = classic->Contains(q.graph);
      const auto cb = staged->Contains(q.graph);
      ASSERT_TRUE(ca.ok() && cb.ok());
      EXPECT_EQ(*ca, *cb);
    }
  }
  EXPECT_GE(staged->observed_races(), 8u);
  // The engine's rewrite cache served the repeated stream from memory.
  EXPECT_GT(staged->rewrite_cache_stats().hits, 0u);
}

}  // namespace
}  // namespace psi
