// Filter-stage scaling: the serial single-trie filter vs the sharded
// filter (ftv/filter_shards.hpp) on executor pools of growing width.
//
// Two quantities, both for Grapes-style (locations) indexes:
//  * index build time — the sharded build runs one trie task per shard on
//    the pool;
//  * filter throughput — queries/second over a repeated workload,
//    filtering only (no verification), serial `Filter` vs `FilterSharded`.
//
// Serial and sharded filters run the same merge-join kernel
// (ForEachCoveringGraph in ftv/filter_shards.hpp) over a (trie, graph-id
// range), so the only sharded speedup left is shard tasks running
// concurrently on the pool; it has to beat the cost of handing each
// shard to a pool task. SHAPE asserts the acceptance claim: >= 1.5x
// filter throughput over serial at pool width >= 2, with byte-identical
// candidate sets.

#include <chrono>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "exec/executor.hpp"
#include "ftv/filter_shards.hpp"
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

struct FilterRun {
  double qps = 0.0;
  size_t candidates = 0;
};

template <typename FilterFn>
FilterRun MeasureFilter(std::span<const gen::Query> workload, int repeats,
                        FilterFn&& filter) {
  FilterRun run;
  const auto t0 = Clock::now();
  for (int r = 0; r < repeats; ++r) {
    run.candidates = 0;
    for (const gen::Query& q : workload) {
      run.candidates += filter(q.graph).size();
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

int main() {
  using namespace psi;
  bench::Banner("bench_ftv_filter_scaling",
                "the ROADMAP filter-stage bottleneck (beyond the paper)");

  const GraphDataset ds = Collection();
  const auto workload =
      bench::FtvWorkload(ds, {4, 8}, bench::QueriesPerSize(12), 20260731);
  std::printf("collection: %zu graphs, workload: %zu queries\n\n",
              ds.size(), workload.size());
  const int repeats = 3;

  // Serial baseline: the single-trie index and its serial filter. One
  // unmeasured warm-up pass first, so the baseline does not pay the cold
  // cache the sharded configurations then inherit warm.
  auto t0 = Clock::now();
  GrapesIndex serial;
  if (!serial.Build(ds).ok()) return 1;
  const double serial_build_ms = MsSince(t0);
  MeasureFilter(workload, 1, [&](const Graph& q) { return serial.Filter(q); });
  const FilterRun base = MeasureFilter(
      workload, repeats, [&](const Graph& q) { return serial.Filter(q); });
  std::printf("%-22s build=%7.1fms  filter=%8.1f q/s  candidates=%zu\n",
              "serial/single-trie", serial_build_ms, base.qps,
              base.candidates);

  bool identical = true;
  double qps_at_2plus = 0.0;
  PoolGauges last_gauges;
  for (size_t width : {size_t{1}, size_t{2}, size_t{4}}) {
    ExecutorOptions eo;
    eo.num_threads = width;
    Executor exec(eo);

    GrapesOptions go;
    go.filter_shards = 0;  // auto: one shard per pool worker
    go.executor = &exec;
    GrapesIndex sharded(go);
    t0 = Clock::now();
    if (!sharded.Build(ds).ok()) return 1;
    const double build_ms = MsSince(t0);

    const FilterRun run =
        MeasureFilter(workload, repeats, [&](const Graph& q) {
          return sharded.FilterSharded(q);
        });
    // Candidate-set identity spot check (the differential harness in
    // tests/ftv_parallel_filter_test.cpp is the exhaustive version).
    for (const gen::Query& q : workload) {
      const auto a = serial.Filter(q.graph);
      const auto b = sharded.FilterSharded(q.graph);
      if (a.size() != b.size() ||
          !std::equal(a.begin(), a.end(), b.begin())) {
        identical = false;
        break;
      }
    }
    char label[64];
    std::snprintf(label, sizeof(label), "sharded/width=%zu/s=%zu", width,
                  std::max<size_t>(sharded.num_filter_shards(), 1));
    std::printf("%-22s build=%7.1fms  filter=%8.1f q/s  speedup=%.2fx\n",
                label, build_ms, run.qps,
                base.qps > 0.0 ? run.qps / base.qps : 0.0);
    if (width >= 2) qps_at_2plus = std::max(qps_at_2plus, run.qps);

    PoolGauges g = exec.gauges();
    sharded.filter_stats().AddTo(&g);
    std::printf("  %s\n  %s\n", FormatPoolGauges(g).c_str(),
                FormatFilterGauges(g).c_str());
    last_gauges = g;
  }

  std::printf("\nper-shard filter latency histogram (last configuration):\n%s",
              FormatFilterWaitHistogram(last_gauges).c_str());

  std::printf("\n");
  bench::Shape(identical,
               "sharded candidate sets identical to the serial filter");
  bench::Shape(qps_at_2plus >= 1.5 * base.qps,
               "sharded filter >= 1.5x serial throughput at pool width >= 2");
  return 0;
}
