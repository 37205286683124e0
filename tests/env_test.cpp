#include "core/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace psi {
namespace {

TEST(EnvTest, DefaultWhenUnset) {
  unsetenv("PSI_TEST_VAR");
  EXPECT_EQ(EnvInt("PSI_TEST_VAR", 42), 42);
}

TEST(EnvTest, ParsesInteger) {
  setenv("PSI_TEST_VAR", "123", 1);
  EXPECT_EQ(EnvInt("PSI_TEST_VAR", 42), 123);
  setenv("PSI_TEST_VAR", "-7", 1);
  EXPECT_EQ(EnvInt("PSI_TEST_VAR", 42), -7);
  unsetenv("PSI_TEST_VAR");
}

TEST(EnvTest, RejectsGarbage) {
  setenv("PSI_TEST_VAR", "12abc", 1);
  EXPECT_EQ(EnvInt("PSI_TEST_VAR", 42), 42);
  setenv("PSI_TEST_VAR", "", 1);
  EXPECT_EQ(EnvInt("PSI_TEST_VAR", 42), 42);
  unsetenv("PSI_TEST_VAR");
}

TEST(EnvTest, KnobsHaveSaneDefaults) {
  unsetenv("PSI_CAP_MS");
  unsetenv("PSI_SCALE");
  unsetenv("PSI_THREADS");
  EXPECT_EQ(CapMillis(), 250);
  EXPECT_EQ(Scale(), 1);
  EXPECT_GE(ThreadBudget(), 1);
}

TEST(EnvTest, KnobsReadEnvironment) {
  setenv("PSI_CAP_MS", "777", 1);
  setenv("PSI_SCALE", "3", 1);
  setenv("PSI_THREADS", "9", 1);
  EXPECT_EQ(CapMillis(), 777);
  EXPECT_EQ(Scale(), 3);
  EXPECT_EQ(ThreadBudget(), 9);
  unsetenv("PSI_CAP_MS");
  unsetenv("PSI_SCALE");
  unsetenv("PSI_THREADS");
}

// ---- Hardened knob parsing (EnvIntClamped) ----

TEST(EnvClampTest, InRangeValuePassesWithoutWarning) {
  setenv("PSI_TEST_VAR", "17", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(EnvIntClamped("PSI_TEST_VAR", 42, 1, 100), 17);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  unsetenv("PSI_TEST_VAR");
}

TEST(EnvClampTest, GarbageFallsBackToDefaultWithWarning) {
  for (const char* bad : {"12abc", "abc", "", "12.5", " "}) {
    setenv("PSI_TEST_VAR", bad, 1);
    testing::internal::CaptureStderr();
    EXPECT_EQ(EnvIntClamped("PSI_TEST_VAR", 42, 1, 100), 42) << bad;
    const std::string err = testing::internal::GetCapturedStderr();
    if (bad[0] != '\0') {  // empty behaves like unset: silent default
      EXPECT_NE(err.find("PSI_TEST_VAR"), std::string::npos) << bad;
    }
  }
  unsetenv("PSI_TEST_VAR");
}

TEST(EnvClampTest, OverflowFallsBackToDefaultWithWarning) {
  setenv("PSI_TEST_VAR", "99999999999999999999999999", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(EnvIntClamped("PSI_TEST_VAR", 42, 1, 100), 42);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("PSI_TEST_VAR"),
            std::string::npos);
  // Plain EnvInt also refuses to round an overflowing literal to
  // INT64_MAX — it returns the default (silently).
  EXPECT_EQ(EnvInt("PSI_TEST_VAR", 42), 42);
  setenv("PSI_TEST_VAR", "-99999999999999999999999999", 1);
  EXPECT_EQ(EnvIntClamped("PSI_TEST_VAR", 42, 1, 100), 42);
  unsetenv("PSI_TEST_VAR");
}

TEST(EnvClampTest, OutOfRangeClampsToNearestBoundWithWarning) {
  setenv("PSI_TEST_VAR", "-5", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(EnvIntClamped("PSI_TEST_VAR", 42, 1, 100), 1);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("PSI_TEST_VAR"),
            std::string::npos);
  setenv("PSI_TEST_VAR", "1000000", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(EnvIntClamped("PSI_TEST_VAR", 42, 1, 100), 100);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("PSI_TEST_VAR"),
            std::string::npos);
  unsetenv("PSI_TEST_VAR");
}

TEST(EnvClampTest, KnobsClampInsteadOfAcceptingNonsense) {
  testing::internal::CaptureStderr();
  // Negative pool width would previously create a zero-thread pool.
  setenv("PSI_POOL_THREADS", "-4", 1);
  EXPECT_EQ(PoolThreads(), 1);
  // Garbage falls back to the documented default.
  setenv("PSI_POOL_THREADS", "lots", 1);
  EXPECT_EQ(PoolThreads(), ThreadBudget());
  unsetenv("PSI_POOL_THREADS");
  // <= 0 is documented-legal for the queue cap (unbounded): a negative
  // value normalizes to 0 rather than falling back to a bounded default.
  setenv("PSI_POOL_QUEUE_CAP", "-7", 1);
  EXPECT_EQ(PoolQueueCap(), 0);
  unsetenv("PSI_POOL_QUEUE_CAP");
  (void)testing::internal::GetCapturedStderr();  // drain the warnings
}

TEST(EnvClampTest, WarnsOncePerVariableValuePair) {
  setenv("PSI_TEST_WARN_ONCE", "not-an-int", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(EnvIntClamped("PSI_TEST_WARN_ONCE", 7, 1, 100), 7);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("PSI_TEST_WARN_ONCE"),
            std::string::npos);
  // Re-reading the same offending value stays silent: the environment is
  // fixed at exec in production, so this is exactly once per process per
  // variable — hot paths can call the knob freely.
  testing::internal::CaptureStderr();
  EXPECT_EQ(EnvIntClamped("PSI_TEST_WARN_ONCE", 7, 1, 100), 7);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  // A *different* offending value (tests, execve) is a new complaint —
  // once.
  setenv("PSI_TEST_WARN_ONCE", "424242", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(EnvIntClamped("PSI_TEST_WARN_ONCE", 7, 1, 100), 100);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("PSI_TEST_WARN_ONCE"),
            std::string::npos);
  testing::internal::CaptureStderr();
  EXPECT_EQ(EnvIntClamped("PSI_TEST_WARN_ONCE", 7, 1, 100), 100);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  unsetenv("PSI_TEST_WARN_ONCE");
}

TEST(EnvClampTest, IndexAndStagedBooleansWarnOnNonsense) {
  unsetenv("PSI_MATCH_INDEX");
  unsetenv("PSI_PLAN_STAGED");
  EXPECT_TRUE(MatchIndexEnabled());  // documented defaults
  EXPECT_FALSE(PlanStaged());
  setenv("PSI_MATCH_INDEX", "0", 1);
  setenv("PSI_PLAN_STAGED", "1", 1);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(MatchIndexEnabled());
  EXPECT_TRUE(PlanStaged());
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  // A word is not an integer: the default stands and the variable is
  // named on stderr, instead of "off" silently keeping the index on.
  setenv("PSI_MATCH_INDEX", "off", 1);
  setenv("PSI_PLAN_STAGED", "yes", 1);
  testing::internal::CaptureStderr();
  EXPECT_TRUE(MatchIndexEnabled());
  EXPECT_FALSE(PlanStaged());
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("PSI_MATCH_INDEX"), std::string::npos) << err;
  EXPECT_NE(err.find("PSI_PLAN_STAGED"), std::string::npos) << err;
  // Out of [0, 1] clamps to the nearest bound, with a warning.
  setenv("PSI_MATCH_INDEX", "-1", 1);
  setenv("PSI_PLAN_STAGED", "7", 1);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(MatchIndexEnabled());
  EXPECT_TRUE(PlanStaged());
  err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("PSI_MATCH_INDEX"), std::string::npos) << err;
  EXPECT_NE(err.find("PSI_PLAN_STAGED"), std::string::npos) << err;
  unsetenv("PSI_MATCH_INDEX");
  unsetenv("PSI_PLAN_STAGED");
}

TEST(EnvClampTest, UnknownOverloadPolicyWarnsOnceAndRejects) {
  unsetenv("PSI_POOL_OVERLOAD");
  EXPECT_EQ(PoolOverloadPolicyName(), "reject");
  setenv("PSI_POOL_OVERLOAD", "shed", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(PoolOverloadPolicyName(), "shed");
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  setenv("PSI_POOL_OVERLOAD", "drop-oldest", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(PoolOverloadPolicyName(), "reject");
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("PSI_POOL_OVERLOAD"), std::string::npos) << err;
  EXPECT_NE(err.find("drop-oldest"), std::string::npos) << err;
  // Once per (variable, value): a second read stays silent.
  testing::internal::CaptureStderr();
  EXPECT_EQ(PoolOverloadPolicyName(), "reject");
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  unsetenv("PSI_POOL_OVERLOAD");
}

}  // namespace
}  // namespace psi
