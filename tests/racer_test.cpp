#include "psi/racer.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "fault/failpoint.hpp"
#include "gen/dataset_gen.hpp"
#include "gen/query_gen.hpp"
#include "tests/test_util.hpp"
#include "vf2/vf2.hpp"

namespace psi {
namespace {

// A variant that completes after `work_ms` of cooperative looping, unless
// stopped or killed first.
RaceVariant SyntheticVariant(std::string name, int work_ms,
                             uint64_t embeddings = 1) {
  return RaceVariant{
      std::move(name), [work_ms, embeddings](const MatchOptions& mo) {
        MatchResult r;
        const auto start = std::chrono::steady_clock::now();
        CostGuard guard(mo.stop, mo.deadline, 1, mo.stop2);
        for (;;) {
          const auto elapsed = std::chrono::steady_clock::now() - start;
          if (elapsed >= std::chrono::milliseconds(work_ms)) break;
          if (guard.Check() != Interrupt::kNone) {
            r.cancelled = guard.state() == Interrupt::kCancelled;
            r.timed_out = guard.state() == Interrupt::kDeadline;
            r.elapsed = std::chrono::steady_clock::now() - start;
            return r;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        r.complete = true;
        r.embedding_count = embeddings;
        r.elapsed = std::chrono::steady_clock::now() - start;
        return r;
      }};
}

TEST(RacerTest, EmptyVariantListGivesNoWinner) {
  RaceOptions o;
  auto r = Race({}, o);
  EXPECT_FALSE(r.completed());
  EXPECT_TRUE(r.workers.empty());
}

TEST(RacerTest, ThreadsFastestVariantWins) {
  std::vector<RaceVariant> variants;
  variants.push_back(SyntheticVariant("slow", 300));
  variants.push_back(SyntheticVariant("fast", 5, 3));
  RaceOptions o;
  o.budget = std::chrono::seconds(5);
  o.mode = RaceMode::kThreads;
  auto r = Race(variants, o);
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.winner, 1);
  EXPECT_EQ(r.result.embedding_count, 3u);
  // The loser must have been cancelled, not run to completion.
  EXPECT_TRUE(r.workers[0].result.cancelled ||
              r.workers[0].result.complete == false);
}

TEST(RacerTest, ThreadsAllKilledAtCap) {
  std::vector<RaceVariant> variants;
  variants.push_back(SyntheticVariant("a", 10000));
  variants.push_back(SyntheticVariant("b", 10000));
  RaceOptions o;
  o.budget = std::chrono::milliseconds(20);
  o.mode = RaceMode::kThreads;
  auto r = Race(variants, o);
  EXPECT_FALSE(r.completed());
  for (const auto& w : r.workers) {
    EXPECT_TRUE(w.result.timed_out) << w.name;
  }
}

TEST(RacerTest, SequentialPicksMinElapsed) {
  std::vector<RaceVariant> variants;
  variants.push_back(SyntheticVariant("mid", 20));
  variants.push_back(SyntheticVariant("fast", 2));
  variants.push_back(SyntheticVariant("slow", 40));
  RaceOptions o;
  o.budget = std::chrono::seconds(1);
  o.mode = RaceMode::kSequential;
  auto r = Race(variants, o);
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.winner, 1);
  // Sequential mode runs everything: all three have outcomes.
  EXPECT_TRUE(r.workers[0].result.complete);
  EXPECT_TRUE(r.workers[2].result.complete);
  // Idealized wall = the winner's own time.
  EXPECT_LT(r.wall_ms(), 15.0);
}

TEST(RacerTest, SequentialEachVariantGetsOwnCap) {
  std::vector<RaceVariant> variants;
  variants.push_back(SyntheticVariant("hog", 10000));  // burns its full cap
  variants.push_back(SyntheticVariant("ok", 5));
  RaceOptions o;
  o.budget = std::chrono::milliseconds(30);
  o.mode = RaceMode::kSequential;
  auto r = Race(variants, o);
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.winner, 1);
  EXPECT_TRUE(r.workers[0].result.timed_out);
  // The second variant was NOT starved by the first one's cap burn.
  EXPECT_TRUE(r.workers[1].result.complete);
}

TEST(RacerTest, SingleVariantHonorsRequestedMode) {
  // A one-variant race must not silently downgrade to sequential: the
  // result's mode label feeds mode-tagged metrics.
  for (RaceMode mode :
       {RaceMode::kThreads, RaceMode::kSequential, RaceMode::kPool}) {
    std::vector<RaceVariant> variants;
    variants.push_back(SyntheticVariant("only", 1));
    RaceOptions o;
    o.mode = mode;
    auto r = Race(variants, o);
    ASSERT_TRUE(r.completed());
    EXPECT_EQ(r.winner, 0);
    EXPECT_EQ(r.mode, mode);
  }
}

TEST(RacerTest, SequentialAllKilledChargedTheConfiguredBudget) {
  // When every variant burns its cap, the idealized race costs the cap —
  // not variant 0's measured time, which can drift past the budget.
  std::vector<RaceVariant> variants;
  variants.push_back(SyntheticVariant("hog-a", 10000));
  variants.push_back(SyntheticVariant("hog-b", 10000));
  RaceOptions o;
  o.budget = std::chrono::milliseconds(25);
  o.mode = RaceMode::kSequential;
  auto r = Race(variants, o);
  EXPECT_FALSE(r.completed());
  EXPECT_EQ(r.wall, o.budget);
}

TEST(RacerTest, PoolFastestVariantWins) {
  Executor exec(4);
  std::vector<RaceVariant> variants;
  variants.push_back(SyntheticVariant("slow", 300));
  variants.push_back(SyntheticVariant("fast", 5, 3));
  RaceOptions o;
  o.budget = std::chrono::seconds(5);
  o.mode = RaceMode::kPool;
  o.executor = &exec;
  auto r = Race(variants, o);
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.winner, 1);
  EXPECT_EQ(r.result.embedding_count, 3u);
  EXPECT_EQ(r.mode, RaceMode::kPool);
  // The loser was cancelled (running or fast-cancelled in the queue).
  EXPECT_FALSE(r.workers[0].result.complete);
}

TEST(RacerTest, PoolAllKilledAtCap) {
  Executor exec(4);
  std::vector<RaceVariant> variants;
  variants.push_back(SyntheticVariant("a", 10000));
  variants.push_back(SyntheticVariant("b", 10000));
  RaceOptions o;
  o.budget = std::chrono::milliseconds(20);
  o.mode = RaceMode::kPool;
  o.executor = &exec;
  auto r = Race(variants, o);
  EXPECT_FALSE(r.completed());
  for (const auto& w : r.workers) {
    EXPECT_TRUE(w.result.timed_out) << w.name;
  }
}

TEST(RacerTest, PoolDefaultsToSharedExecutor) {
  std::vector<RaceVariant> variants;
  variants.push_back(SyntheticVariant("fast", 2));
  variants.push_back(SyntheticVariant("slow", 200));
  RaceOptions o;
  o.budget = std::chrono::seconds(5);
  o.mode = RaceMode::kPool;  // executor == nullptr -> Executor::Shared()
  auto r = Race(variants, o);
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.winner, 0);
}

TEST(RacerTest, PoolLosersAreCancelledNotRunToCompletion) {
  // One worker: once the fast variant wins, the long variants must come
  // back cancelled — either fast-cancelled while queued or stopped through
  // the group token moments after starting (when the helping Wait picked
  // them up). Either way they never burn their 5 s of work.
  Executor exec(1);
  std::vector<RaceVariant> variants;
  variants.push_back(SyntheticVariant("fast", 2));
  variants.push_back(SyntheticVariant("queued-a", 5000));
  variants.push_back(SyntheticVariant("queued-b", 5000));
  RaceOptions o;
  o.budget = std::chrono::seconds(30);
  o.mode = RaceMode::kPool;
  o.executor = &exec;
  const auto start = std::chrono::steady_clock::now();
  auto r = Race(variants, o);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.winner, 0);
  EXPECT_TRUE(r.workers[1].result.cancelled);
  EXPECT_TRUE(r.workers[2].result.cancelled);
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 4.0);
}

TEST(RacerTest, PoolRealMatchersRace) {
  const Graph g = gen::YeastLike(8, 9);
  auto w = gen::GenerateWorkload(g, 1, 8, 31);
  ASSERT_TRUE(w.ok());
  const Graph& q = (*w)[0].graph;
  Executor exec(4);
  std::vector<RaceVariant> variants;
  for (int i = 0; i < 3; ++i) {
    variants.push_back(RaceVariant{
        "vf2-" + std::to_string(i),
        [&q, &g](const MatchOptions& mo) { return Vf2Match(q, g, mo); }});
  }
  RaceOptions o;
  o.budget = std::chrono::seconds(5);
  o.max_embeddings = 1;
  o.mode = RaceMode::kPool;
  o.executor = &exec;
  auto r = Race(variants, o);
  ASSERT_TRUE(r.completed());
  EXPECT_TRUE(r.result.found());
}

TEST(RacerTest, ZeroBudgetMeansUncapped) {
  std::vector<RaceVariant> variants;
  variants.push_back(SyntheticVariant("v", 10));
  RaceOptions o;  // budget 0
  o.mode = RaceMode::kSequential;
  auto r = Race(variants, o);
  EXPECT_TRUE(r.completed());
}

TEST(RacerTest, RealMatchersRace) {
  // Race VF2 against itself on a planted query: some rewriting finishes.
  const Graph g = gen::YeastLike(8, 9);
  auto w = gen::GenerateWorkload(g, 1, 8, 31);
  ASSERT_TRUE(w.ok());
  const Graph& q = (*w)[0].graph;
  std::vector<RaceVariant> variants;
  for (int i = 0; i < 3; ++i) {
    variants.push_back(RaceVariant{
        "vf2-" + std::to_string(i),
        [&q, &g](const MatchOptions& mo) { return Vf2Match(q, g, mo); }});
  }
  RaceOptions o;
  o.budget = std::chrono::seconds(5);
  o.max_embeddings = 1;
  o.mode = RaceMode::kThreads;
  auto r = Race(variants, o);
  ASSERT_TRUE(r.completed());
  EXPECT_TRUE(r.result.found());
}

TEST(RacerTest, CompletedNoMatchIsAValidWin) {
  // A variant that completes with zero embeddings must win over one that
  // never finishes: "no" is an answer.
  std::vector<RaceVariant> variants;
  variants.push_back(SyntheticVariant("never", 10000));
  variants.push_back(SyntheticVariant("no-match", 3, 0));
  RaceOptions o;
  o.budget = std::chrono::milliseconds(100);
  o.mode = RaceMode::kThreads;
  auto r = Race(variants, o);
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.winner, 1);
  EXPECT_FALSE(r.result.found());
}

// ---- One-contender kPool races run on the calling thread ----------------

TEST(RacerTest, OneContenderPoolRaceRunsOnTheCallingThread) {
  Executor exec(2);
  std::thread::id ran_on;
  std::vector<RaceVariant> variants;
  variants.push_back(RaceVariant{"only", [&ran_on](const MatchOptions&) {
                                   ran_on = std::this_thread::get_id();
                                   MatchResult r;
                                   r.complete = true;
                                   r.embedding_count = 1;
                                   return r;
                                 }});
  RaceOptions o;
  o.budget = std::chrono::seconds(5);
  o.mode = RaceMode::kPool;
  o.executor = &exec;
  const uint64_t submitted0 = exec.gauges().tasks_submitted;
  const RaceResult r = Race(variants, o);
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.mode, RaceMode::kPool);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(exec.gauges().tasks_submitted, submitted0);
}

TEST(RacerTest, OneContenderPoolRaceAbsorbsAThrowingBody) {
  Executor exec(2);
  const std::vector<RaceVariant> variants = {
      {"throws", [](const MatchOptions&) -> MatchResult {
         throw std::runtime_error("matcher bug");
       }}};
  RaceOptions o;
  o.budget = std::chrono::seconds(5);
  o.mode = RaceMode::kPool;
  o.executor = &exec;
  const RaceResult r = Race(variants, o);
  EXPECT_FALSE(r.completed());
  EXPECT_EQ(r.variant_crashes, 1u);
  EXPECT_TRUE(r.workers[0].result.cancelled);
  EXPECT_EQ(r.mode, RaceMode::kPool);
}

TEST(RacerTest, OneContenderPoolRaceKeepsTheWatchdog) {
  // ChaosTest.WatchdogTearsDownWedgedRace with one contender: an armed
  // watchdog keeps the race on the pool, where it can abandon the body.
  const auto wedged = [](const MatchOptions&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    MatchResult r;
    r.complete = false;
    r.cancelled = true;
    return r;
  };
  const std::vector<RaceVariant> variants = {{"wedge", wedged}};
  RaceOptions o;
  o.budget = std::chrono::milliseconds(20);
  o.mode = RaceMode::kPool;
  o.watchdog_grace = std::chrono::milliseconds(20);
  const uint64_t fires0 = FaultStats::Instance().watchdog_fires();
  const RaceResult r = Race(variants, o);
  EXPECT_FALSE(r.completed());
  EXPECT_TRUE(r.watchdog_fired);
  EXPECT_EQ(FaultStats::Instance().watchdog_fires() - fires0, 1u);
}

}  // namespace
}  // namespace psi
