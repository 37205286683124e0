// Deterministic, seeded fault injection for the serving spine.
//
// A *failpoint* is a named site in the library where a test (or a chaos
// run) can ask for a deliberate failure: a spurious admission rejection,
// a shed dequeue, a bounded delay, a thrown exception, a typed error, or
// a forced cache miss. Sites are compiled into the hot paths as
// `PSI_FAULT_POINT("site")`, which is
//
//   * one relaxed atomic load when no rules are installed (the serving
//     default — no mutex, no map lookup, no branch beyond the flag);
//   * a constant `FaultKind::kNone` when the library is built with
//     `-DPSI_FAULTS=OFF`, so the whole branch folds away.
//
// Determinism: every site keeps an evaluation counter, and the fire/spare
// decision for evaluation #i is a pure function of (global seed, site
// name, i) via SplitMix64 — re-running a schedule with the same seed
// yields the same decision *sequence* per site. Thread interleavings may
// assign those decisions to different concurrent calls; the chaos harness
// therefore asserts schedule-level invariants (answer-or-typed-error,
// exact gauge accounting, absorbed ⇒ identical answers), not per-call
// placement.
//
// Rules come from the environment (PSI_FAULT="site=kind:prob[:after]
// [:limit][:delay_ms],...", seeded by PSI_FAULT_SEED) or programmatically
// through a scoped FaultInjector, which restores the previous installation
// on destruction — the test idiom.
//
// Absorption contract (see ARCHITECTURE.md "Fault injection & degradation
// ladder"): recovery paths — inline re-runs of displaced work, the
// crash-absorption re-race — execute under a FaultSuppressionScope, so
// every injected fault is absorbed in at most one recovery step and a
// schedule of absorbable faults cannot change answers or livelock.
//
// Wired sites (kinds each one honours; kDelay sleeps inside Evaluate and
// is honoured everywhere):
//   exec.admit      kReject  spurious admission rejection (exec/executor)
//   exec.dequeue    kShed    dequeue surfaces TaskStart::kShed
//   exec.run        kThrow   worker "crashes" before the body: task is
//                            started as kShed so spawners absorb it
//   group.cancel    kDelay   perturb TaskGroup cancellation timing
//   race.variant    kThrow   racing variant crashes (psi/racer)
//   plan.probe      kError   a staged plan's probe stage misses outright
//   rewrite.lookup  kMiss    RewriteCache recomputes (purity makes this
//                            invisible beyond the miss counter)
//   engine.prepare  kError   PsiEngine::Prepare returns Status::IOError
//   engine.run      kError   PsiEngine::Run produces an all-killed race

#ifndef PSI_FAULT_FAILPOINT_HPP_
#define PSI_FAULT_FAILPOINT_HPP_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace psi {

struct PoolGauges;

/// What an evaluated failpoint asks the site to do. Sites honour the
/// kinds that make sense for them (see the table above) and treat the
/// rest as kNone.
enum class FaultKind : uint8_t {
  kNone = 0,
  kReject,  ///< admission control spuriously refuses
  kShed,    ///< task surfaces as TaskStart::kShed
  kDelay,   ///< bounded sleep (performed inside Evaluate)
  kThrow,   ///< site throws FaultInjectedError
  kError,   ///< site returns its typed failure / declines
  kMiss,    ///< cache lookup behaves as a miss
};

/// Parses "reject" / "shed" / "delay" / "throw" / "error" / "miss";
/// anything else yields kNone.
FaultKind FaultKindFromName(const std::string& name);
const char* ToString(FaultKind k);

/// The exception kThrow sites raise. Deliberately derived from
/// std::runtime_error so an escape through an unprotected path still
/// prints something actionable — but no escape should survive the
/// envelope/variant catch layers this PR installs.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& site)
      : std::runtime_error("injected fault at " + site) {}
};

/// One installed rule. `prob` is the per-evaluation fire probability,
/// `after` skips the first evaluations of the site, `limit` caps total
/// fires (0 = unlimited), `delay_ms` sizes kDelay sleeps.
struct FaultRule {
  std::string site;
  FaultKind kind = FaultKind::kNone;
  double prob = 1.0;
  uint64_t after = 0;
  uint64_t limit = 0;
  uint32_t delay_ms = 1;
};

/// Process-global counters of the fault/degradation machinery. Always
/// compiled in (the recovery paths they instrument protect against real
/// bugs too, not only injected ones); folded into PoolGauges by
/// PsiEngine::pool_gauges(). Tests assert on snapshot deltas — the
/// counters accumulate for the process lifetime.
class FaultStats {
 public:
  static FaultStats& Instance();

  void NoteInjected() { injected_.fetch_add(1, std::memory_order_relaxed); }
  void NoteCrash() { crashes_.fetch_add(1, std::memory_order_relaxed); }
  void NoteRetry() { retries_.fetch_add(1, std::memory_order_relaxed); }
  void NoteWatchdog() { watchdog_.fetch_add(1, std::memory_order_relaxed); }

  uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }
  uint64_t variant_crashes() const {
    return crashes_.load(std::memory_order_relaxed);
  }
  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }
  uint64_t watchdog_fires() const {
    return watchdog_.load(std::memory_order_relaxed);
  }

  /// Adds the counters into a PoolGauges snapshot (fault_* fields).
  void AddTo(PoolGauges* g) const;

 private:
  FaultStats() = default;
  std::atomic<uint64_t> injected_{0};
  std::atomic<uint64_t> crashes_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> watchdog_{0};
};

/// The process-wide failpoint registry. Rules are installed rarely (test
/// setup / process start from PSI_FAULT); evaluation is constant-time on
/// the inactive path. Thread-safe throughout.
class FaultRegistry {
 public:
  /// Lazily constructed; the first access installs PSI_FAULT /
  /// PSI_FAULT_SEED from the environment (empty spec = inactive).
  static FaultRegistry& Instance();

  /// Replaces the installed rule set (and per-site counters). Rules with
  /// kind kNone are dropped.
  void Install(std::vector<FaultRule> rules, uint64_t seed);
  /// Parses `spec` and installs the result.
  void InstallSpec(const std::string& spec, uint64_t seed);
  void Clear();

  /// Current installation, for save/restore (FaultInjector).
  std::vector<FaultRule> rules() const;
  uint64_t seed() const;

  /// True when at least one rule is installed (the hot-path gate).
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Full evaluation: counter bump, deterministic coin flip, limit
  /// accounting, kDelay sleep. Returns kNone when the site has no rule,
  /// the coin spared it, or a FaultSuppressionScope is open on this
  /// thread. Prefer the PSI_FAULT_POINT macro at call sites.
  FaultKind Evaluate(const char* site);

  /// Parses the PSI_FAULT grammar: comma-separated
  /// `site=kind:prob[:after][:limit][:delay_ms]` entries; `prob` may be
  /// omitted (1.0). Malformed entries are skipped with one stderr warning
  /// each.
  static std::vector<FaultRule> ParseSpec(const std::string& spec);

 private:
  FaultRegistry();

  struct SiteState;
  SiteState* FindSite(const char* site);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SiteState>> sites_;  // guarded by mu_
  uint64_t seed_ = 1;                              // guarded by mu_
  std::atomic<bool> active_{false};
};

/// RAII suppression of injection on the current thread: recovery paths
/// (inline re-runs, the crash-absorption re-race) open one so absorbed
/// faults cannot re-fire into their own recovery. Nestable.
class FaultSuppressionScope {
 public:
  FaultSuppressionScope();
  ~FaultSuppressionScope();
  FaultSuppressionScope(const FaultSuppressionScope&) = delete;
  FaultSuppressionScope& operator=(const FaultSuppressionScope&) = delete;
};

/// Scoped programmatic installation for tests: installs `spec` (or
/// `rules`) on construction and restores the previous installation on
/// destruction. One live injector at a time per process — they stack
/// textually, not concurrently.
class FaultInjector {
 public:
  explicit FaultInjector(const std::string& spec, uint64_t seed = 1);
  FaultInjector(std::vector<FaultRule> rules, uint64_t seed);
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

 private:
  std::vector<FaultRule> saved_rules_;
  uint64_t saved_seed_;
};

/// True when the library was built with failpoints compiled in
/// (PSI_FAULTS=ON, the default). Tests skip injection-dependent cases in
/// the compiled-out build.
constexpr bool FaultsCompiledIn() {
#ifdef PSI_FAULTS_OFF
  return false;
#else
  return true;
#endif
}

}  // namespace psi

/// The site macro. Compiled out to a constant under -DPSI_FAULTS=OFF;
/// otherwise one relaxed load when no rules are installed.
#ifdef PSI_FAULTS_OFF
#define PSI_FAULT_POINT(site) (::psi::FaultKind::kNone)
#else
#define PSI_FAULT_POINT(site)                          \
  (::psi::FaultRegistry::Instance().active()           \
       ? ::psi::FaultRegistry::Instance().Evaluate(site) \
       : ::psi::FaultKind::kNone)
#endif

#endif  // PSI_FAULT_FAILPOINT_HPP_
