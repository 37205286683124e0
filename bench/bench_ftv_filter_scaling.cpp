// FTV index scaling: the serial single-trie build vs range-sharded builds
// (ftv/filter_shards.hpp) on executor pools of growing width.
//
// Two quantities, both for Grapes-style (locations) indexes:
//  * index build time — a sharded build runs one trie task per graph-id
//    range on the pool, one range per pool worker (filter_shards = 0);
//    best of three builds per row;
//  * filter throughput — queries/second over a repeated workload,
//    filtering only (no verification), with `Filter` on each index.
//
// `Filter` walks an index's range tries serially with one merge-join
// kernel (ForEachCoveringGraph in ftv/filter_shards.hpp), so the ranges
// pay off only in the build; the filter rows show what walking several
// tries instead of one costs. SHAPE asserts byte-identical candidate sets
// and a >= 1.5x faster build at pool width 4. `--json out.json` archives
// every metric (see bench_util.hpp JsonOut).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "bench/bench_util.hpp"
#include "exec/executor.hpp"
#include "grapes/grapes.hpp"

namespace psi {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// The bench collection: enough small stored graphs that the filter
/// stage, not the generator, dominates.
GraphDataset Collection() {
  gen::GraphGenLikeOptions o;
  o.num_graphs = static_cast<uint32_t>(240 * Scale());
  o.avg_nodes = 90;
  o.density = 0.05;
  o.num_labels = 12;
  o.seed = 20260730;
  return gen::GraphGenLike(o);
}

struct BuildRun {
  double best_ms = 0.0;
  double worst_ms = 0.0;
};

/// Builds a fresh index with `options` kBuilds times and keeps the last
/// one; nullptr when a build fails.
constexpr int kBuilds = 3;
std::unique_ptr<GrapesIndex> TimeBuilds(const GrapesOptions& options,
                                        const GraphDataset& ds,
                                        BuildRun* run) {
  std::unique_ptr<GrapesIndex> index;
  for (int i = 0; i < kBuilds; ++i) {
    index = std::make_unique<GrapesIndex>(options);
    const auto t0 = Clock::now();
    if (!index->Build(ds).ok()) return nullptr;
    const double ms = MsSince(t0);
    run->best_ms = i == 0 ? ms : std::min(run->best_ms, ms);
    run->worst_ms = std::max(run->worst_ms, ms);
  }
  return index;
}

struct FilterRun {
  double qps = 0.0;
  size_t candidates = 0;
};

/// One unmeasured warm-up pass, then `repeats` measured passes of Filter
/// over the workload.
FilterRun MeasureFilter(const GrapesIndex& index,
                        std::span<const gen::Query> workload, int repeats) {
  for (const gen::Query& q : workload) index.Filter(q.graph);
  FilterRun run;
  const auto t0 = Clock::now();
  for (int r = 0; r < repeats; ++r) {
    run.candidates = 0;
    for (const gen::Query& q : workload) {
      run.candidates += index.Filter(q.graph).size();
    }
  }
  const double ms = MsSince(t0);
  run.qps = ms > 0.0
                ? 1000.0 * static_cast<double>(workload.size()) *
                      static_cast<double>(repeats) / ms
                : 0.0;
  return run;
}

}  // namespace
}  // namespace psi

int main(int argc, char** argv) {
  using namespace psi;
  bench::JsonOut json("bench_ftv_filter_scaling", argc, argv);
  bench::Banner("bench_ftv_filter_scaling",
                "the ROADMAP filter-stage bottleneck (beyond the paper)");

  const GraphDataset ds = Collection();
  const auto workload =
      bench::FtvWorkload(ds, {4, 8}, bench::QueriesPerSize(12), 20260731);
  std::printf("collection: %zu graphs, workload: %zu queries\n\n",
              ds.size(), workload.size());
  json.Metric("hardware_concurrency",
              static_cast<double>(std::thread::hardware_concurrency()));
  const int repeats = 20;

  // Serial baseline: the single-trie index, built inline.
  BuildRun serial_build;
  const auto serial = TimeBuilds(GrapesOptions{}, ds, &serial_build);
  if (serial == nullptr) return 1;
  const FilterRun base = MeasureFilter(*serial, workload, repeats);
  std::printf("%-20s build=%7.1fms (worst %7.1fms)  filter=%8.1f q/s  "
              "candidates=%zu\n",
              "serial/single-trie", serial_build.best_ms,
              serial_build.worst_ms, base.qps, base.candidates);
  json.Metric("serial_build_ms", serial_build.best_ms);
  json.Metric("serial_filter_qps", base.qps);

  bool identical = true;
  double width4_build_ms = 0.0;
  for (size_t width : {size_t{1}, size_t{2}, size_t{4}}) {
    ExecutorOptions eo;
    eo.num_threads = width;
    Executor exec(eo);

    GrapesOptions go;
    go.filter_shards = 0;  // one range per pool worker
    go.executor = &exec;
    BuildRun build;
    const auto sharded = TimeBuilds(go, ds, &build);
    if (sharded == nullptr) return 1;
    const FilterRun run = MeasureFilter(*sharded, workload, repeats);
    // Candidate-set identity spot check (the differential harness in
    // tests/ftv_parallel_filter_test.cpp is the exhaustive version).
    for (const gen::Query& q : workload) {
      if (serial->Filter(q.graph) != sharded->Filter(q.graph)) {
        identical = false;
        break;
      }
    }
    char label[64];
    std::snprintf(label, sizeof(label), "width=%zu/ranges=%zu", width,
                  sharded->num_filter_shards());
    const double build_speedup =
        build.best_ms > 0.0 ? serial_build.best_ms / build.best_ms : 0.0;
    std::printf("%-20s build=%7.1fms (worst %7.1fms)  filter=%8.1f q/s  "
                "build speedup=%.2fx  filter=%.2fx serial\n",
                label, build.best_ms, build.worst_ms, run.qps,
                build_speedup, base.qps > 0.0 ? run.qps / base.qps : 0.0);
    const std::string key = "width" + std::to_string(width);
    json.Metric(key + "_build_ms", build.best_ms);
    json.Metric(key + "_build_speedup", build_speedup);
    json.Metric(key + "_filter_qps", run.qps);
    if (width == 4) width4_build_ms = build.best_ms;

    PoolGauges g = exec.gauges();
    sharded->filter_stats().AddTo(&g);
    std::printf("  %s\n  %s\n", FormatPoolGauges(g).c_str(),
                FormatFilterGauges(g).c_str());
  }

  std::printf("\n");
  bench::Shape(identical,
               "sharded candidate sets identical to the serial filter");
  bench::Shape(width4_build_ms > 0.0 &&
                   serial_build.best_ms >= 1.5 * width4_build_ms,
               "width-4 build >= 1.5x faster than the serial build");
  return 0;
}
