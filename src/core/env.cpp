#include "core/env.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <thread>

namespace psi {

namespace {

enum class ParseOutcome { kUnset, kOk, kGarbage, kOverflow };

// Warn at most once per process for each (variable, raw value) pair. A
// process's environment is fixed at exec, so in production this is
// exactly once per misconfigured variable; keying on the raw value too
// keeps the warning honest when tests mutate a variable mid-process.
// Leaked intentionally: knobs are read from static initializers and
// destructor order is not worth fighting.
bool FirstWarningFor(const char* name, const char* raw) {
  static std::mutex mu;
  static auto* seen = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  return seen->insert(std::string(name) + "=" + raw).second;
}

ParseOutcome ParseInt(const char* raw, int64_t* out) {
  if (raw == nullptr || *raw == '\0') return ParseOutcome::kUnset;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0') return ParseOutcome::kGarbage;
  if (errno == ERANGE) return ParseOutcome::kOverflow;
  *out = static_cast<int64_t>(v);
  return ParseOutcome::kOk;
}

}  // namespace

int64_t EnvInt(const char* name, int64_t def) {
  int64_t v = 0;
  return ParseInt(std::getenv(name), &v) == ParseOutcome::kOk ? v : def;
}

int64_t EnvIntClamped(const char* name, int64_t def, int64_t min_v,
                      int64_t max_v) {
  const int64_t fallback = std::clamp(def, min_v, max_v);
  const char* raw = std::getenv(name);
  int64_t v = 0;
  switch (ParseInt(raw, &v)) {
    case ParseOutcome::kUnset:
      return fallback;
    case ParseOutcome::kGarbage:
      if (FirstWarningFor(name, raw)) {
        std::fprintf(stderr,
                     "psi: %s=\"%s\" is not an integer; using %lld\n", name,
                     raw, static_cast<long long>(fallback));
      }
      return fallback;
    case ParseOutcome::kOverflow:
      if (FirstWarningFor(name, raw)) {
        std::fprintf(stderr,
                     "psi: %s=\"%s\" overflows; using %lld\n", name, raw,
                     static_cast<long long>(fallback));
      }
      return fallback;
    case ParseOutcome::kOk:
      break;
  }
  if (v < min_v || v > max_v) {
    const int64_t clamped = std::clamp(v, min_v, max_v);
    if (FirstWarningFor(name, raw)) {
      std::fprintf(
          stderr, "psi: %s=%lld out of range [%lld, %lld]; using %lld\n",
          name, static_cast<long long>(v), static_cast<long long>(min_v),
          static_cast<long long>(max_v), static_cast<long long>(clamped));
    }
    return clamped;
  }
  return v;
}

namespace {
// A generous structural ceiling for count-like knobs — far above anything
// real, low enough that an accidental huge value cannot wedge allocations.
constexpr int64_t kCountMax = 1 << 20;
}  // namespace

int64_t CapMillis() {
  return EnvIntClamped("PSI_CAP_MS", 250, 1,
                       std::numeric_limits<int64_t>::max() / 2);
}

int64_t Scale() { return EnvIntClamped("PSI_SCALE", 1, 1, kCountMax); }

int64_t ThreadBudget() {
  const auto hw = static_cast<int64_t>(std::thread::hardware_concurrency());
  return EnvIntClamped("PSI_THREADS", hw > 0 ? hw : 1, 1, kCountMax);
}

int64_t PoolThreads() {
  return EnvIntClamped("PSI_POOL_THREADS", ThreadBudget(), 1, kCountMax);
}

std::string EnvString(const char* name, const char* def) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return def;
  return raw;
}

// 0 = unbounded; a negative value meant the same and now clamps to 0 with
// a warning.
int64_t PoolQueueCap() {
  return EnvIntClamped("PSI_POOL_QUEUE_CAP", 0, 0,
                       std::numeric_limits<int64_t>::max() / 2);
}

std::string PoolOverloadPolicyName() {
  const std::string name = EnvString("PSI_POOL_OVERLOAD", "reject");
  if (name == "reject" || name == "shed") return name;
  if (FirstWarningFor("PSI_POOL_OVERLOAD", name.c_str())) {
    std::fprintf(stderr,
                 "psi: PSI_POOL_OVERLOAD=\"%s\" is not reject or shed; "
                 "using reject\n",
                 name.c_str());
  }
  return "reject";
}

// 0 disables aging; negatives (the old "disable" spelling) clamp to 0, so
// the documented behaviour is preserved — now with a warning.
int64_t PoolAgingMillis() {
  return EnvIntClamped("PSI_POOL_AGING_MS", 500, 0,
                       std::numeric_limits<int64_t>::max() / 2);
}

int64_t GuardPeriod() {
  return EnvIntClamped("PSI_GUARD_PERIOD", 256, 1, kCountMax);
}

bool PlanStaged() { return EnvIntClamped("PSI_PLAN_STAGED", 0, 0, 1) != 0; }

int64_t PlanProbePercent() {
  return EnvIntClamped("PSI_PLAN_PROBE_PCT", 10, 1, 100);
}

int64_t PlanMinSamples() {
  return EnvIntClamped("PSI_PLAN_MIN_SAMPLES", 8, 0, kCountMax);
}

bool MatchIndexEnabled() {
  return EnvIntClamped("PSI_MATCH_INDEX", 1, 0, 1) != 0;
}

// 0 = retries off (every overloaded race degrades immediately).
int64_t RetryMax() { return EnvIntClamped("PSI_RETRY_MAX", 0, 0, 100); }

int64_t RetryBaseMillis() {
  return EnvIntClamped("PSI_RETRY_BASE_MS", 1, 1, 10000);
}

// 0 = watchdog off; the race waits indefinitely on its TaskGroup (the
// pre-watchdog behaviour, safe because variants poll their CostGuards).
int64_t WatchdogGraceMillis() {
  return EnvIntClamped("PSI_WATCHDOG_GRACE_MS", 0, 0,
                       std::numeric_limits<int64_t>::max() / 2);
}

}  // namespace psi
