// Self-tests of the benchmark harness itself:
//   * the reference check catches a deliberately flipped answer;
//   * a seed fixes the request stream, and another seed changes it;
//   * the tail percentile leaves at least 10 samples beyond it;
//   * span self-time arithmetic on hand-built span trees;
//   * a traced run closes its accounting and reads 0 for split.
//
//   psibench_selftest            (or: python3 psibench/run.py --selftest)
//
// Exits 0 when every check passes.

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using psibench::Layer;
using psibench::Op;
using psibench::Span;

double Self(const std::array<double, psibench::kNumLayers>& s, Layer l) {
  return s[static_cast<size_t>(l)];
}

void TestFlippedAnswerFailsTheRun() {
  for (const std::string& workload : psibench::WorkloadNames()) {
    psibench::RunConfig cfg;
    cfg.workload = workload;
    cfg.seed = 7;
    cfg.seconds = 0.2;
    cfg.tiny = true;
    std::ostringstream log;
    const psibench::RunReport clean = psibench::RunWorkload(cfg, log);
    Check(clean.correct && clean.failed == 0 && clean.attempted > 0,
          workload + ": unflipped run is correct");
    cfg.flip_answer = 0;
    const psibench::RunReport flipped = psibench::RunWorkload(cfg, log);
    Check(!flipped.correct && flipped.failed == 1,
          workload + ": one flipped answer fails the run");
  }
}

void TestTracedRunClosesAccounting() {
  psibench::RunConfig cfg;
  cfg.workload = "nfv-light";
  cfg.seed = 3;
  cfg.seconds = 0.2;
  cfg.tiny = true;
  cfg.trace = true;
  std::ostringstream log;
  const psibench::RunReport r = psibench::RunWorkload(cfg, log);
  Check(r.correct, "nfv-light: traced run closes its accounting");
  bool zero_split = false;
  for (const psibench::Metric& m : r.metrics) {
    if (m.name == "match.split_per_req") zero_split = m.value == 0.0;
  }
  Check(zero_split, "nfv-light: split counter reads 0 by library default");
}

void TestStreamsFollowTheSeed() {
  for (const std::string& workload : psibench::WorkloadNames()) {
    const auto a = psibench::RequestStreamFingerprints(workload, 11, 40, true);
    const auto b = psibench::RequestStreamFingerprints(workload, 11, 40, true);
    const auto c = psibench::RequestStreamFingerprints(workload, 12, 40, true);
    Check(a == b, workload + ": same seed, identical request stream");
    Check(a != c, workload + ": another seed, another request stream");
  }
}

void TestTailPercentile() {
  Check(psibench::TailPercentileFor(5) == 0.0, "tail: 5 samples -> p0");
  Check(psibench::TailPercentileFor(19) == 0.0, "tail: 19 samples -> p0");
  Check(psibench::TailPercentileFor(20) == 50.0, "tail: 20 samples -> p50");
  Check(psibench::TailPercentileFor(99) == 50.0, "tail: 99 samples -> p50");
  Check(psibench::TailPercentileFor(100) == 90.0, "tail: 100 samples -> p90");
  Check(psibench::TailPercentileFor(999) == 90.0, "tail: 999 samples -> p90");
  Check(psibench::TailPercentileFor(1000) == 99.0, "tail: 1000 -> p99");
  Check(psibench::TailPercentileFor(500000) == 99.0, "tail: ladder ends at p99");
  // The rule itself, over a range of sample counts.
  bool rule = true;
  for (size_t n = 10; n < 300000; n = n * 3 / 2 + 1) {
    const double p = psibench::TailPercentileFor(n);
    const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
    if (beyond < 10.0 - 1e-9) rule = false;
  }
  Check(rule, "tail: at least 10 samples beyond, for every n >= 10");
}

void TestSelfTimes() {
  // request [0,100): plan [10,20), rewrite [20,30), race [30,90) whose
  // variants run [35,80) and [40,95) -- the second clipped to 90.
  std::vector<Span> tree = {
      {Op::kRequest, -1, 0, 100, -1}, {Op::kPlan, 0, 10, 20, -1},
      {Op::kRewrite, 0, 20, 30, -1},  {Op::kRace, 0, 30, 90, 0},
      {Op::kVariant, 3, 35, 80, 0},   {Op::kVariant, 3, 40, 95, 1},
  };
  auto s = psibench::SelfTimesNs(tree);
  Check(Near(Self(s, Layer::kPlan), 10), "self: plan 10");
  Check(Near(Self(s, Layer::kRewrite), 10), "self: rewrite 10");
  Check(Near(Self(s, Layer::kPsi), 5), "self: race minus variants 5");
  Check(Near(Self(s, Layer::kMatch), 55),
        "self: overlapping variants count once, clipped to the race");
  Check(Near(Self(s, Layer::kRequest), 20), "self: request remainder 20");

  // Concurrent spans of different layers share each instant.
  std::vector<Span> shared = {
      {Op::kRequest, -1, 0, 10, -1},
      {Op::kFilter, 0, 0, 10, -1},
      {Op::kRewrite, 0, 0, 10, -1},
  };
  s = psibench::SelfTimesNs(shared);
  Check(Near(Self(s, Layer::kFtv), 5) && Near(Self(s, Layer::kRewrite), 5) &&
            Near(Self(s, Layer::kRequest), 0),
        "self: two concurrent leaves split the interval");

  // Every layer sums to the root's duration; children starting and
  // ending on their parent's bounds change nothing.
  std::vector<Span> edges = {
      {Op::kRequest, -1, 0, 50, -1}, {Op::kRace, 0, 0, 50, -1},
      {Op::kVariant, 1, 0, 50, 0},   {Op::kVariant, 1, 0, 20, 1},
      {Op::kObserve, 0, 50, 50, -1},
  };
  s = psibench::SelfTimesNs(edges);
  double sum = 0;
  for (double v : s) sum += v;
  Check(Near(sum, 50) && Near(Self(s, Layer::kMatch), 50),
        "self: layers sum to the root duration");
}

}  // namespace

int main() {
  TestSelfTimes();
  TestTailPercentile();
  TestStreamsFollowTheSeed();
  TestFlippedAnswerFailsTheRun();
  TestTracedRunClosesAccounting();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
