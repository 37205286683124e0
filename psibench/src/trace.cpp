#include "trace.hpp"

#include <algorithm>
#include <chrono>

namespace psibench {

const char* OpName(Op op) {
  switch (op) {
    case Op::kRequest: return "request";
    case Op::kPlan: return "plan";
    case Op::kObserve: return "observe";
    case Op::kRewrite: return "rewrite";
    case Op::kRace: return "race";
    case Op::kVariant: return "variant";
    case Op::kFilter: return "filter";
    case Op::kQueue: return "queue";
    case Op::kFanOut: return "fan-out";
  }
  return "?";
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRequest: return "request";
    case Layer::kPlan: return "plan";
    case Layer::kRewrite: return "rewrite";
    case Layer::kExec: return "exec";
    case Layer::kPsi: return "psi";
    case Layer::kMatch: return "match";
    case Layer::kFtv: return "ftv";
  }
  return "?";
}

Layer LayerOf(Op op) {
  switch (op) {
    case Op::kRequest: return Layer::kRequest;
    case Op::kPlan:
    case Op::kObserve: return Layer::kPlan;
    case Op::kRewrite: return Layer::kRewrite;
    case Op::kRace: return Layer::kPsi;
    case Op::kVariant: return Layer::kMatch;
    case Op::kFilter: return Layer::kFtv;
    case Op::kQueue:
    case Op::kFanOut: return Layer::kExec;
  }
  return Layer::kRequest;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t RequestTrace::Begin(Op op, int32_t parent, int32_t variant) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{op, parent, now, 0, variant});
  return static_cast<int32_t>(spans_.size() - 1);
}

void RequestTrace::End(int32_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

void RequestTrace::EndRace(int32_t id, int32_t winner) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_ns = now;
  spans_[static_cast<size_t>(id)].variant = winner;
}

std::array<double, kNumLayers> SelfTimesNs(std::span<const Span> spans) {
  std::array<double, kNumLayers> self{};
  const size_t n = spans.size();
  // Clip to the (already clipped) parent; parents precede their children.
  std::vector<int64_t> start(n), end(n);
  for (size_t i = 0; i < n; ++i) {
    start[i] = spans[i].start_ns;
    end[i] = spans[i].end_ns;
    if (const int32_t p = spans[i].parent; p >= 0) {
      start[i] = std::max(start[i], start[static_cast<size_t>(p)]);
      end[i] = std::min(end[i], end[static_cast<size_t>(p)]);
    }
  }
  struct Event {
    int64_t t;
    size_t span;
    bool begins;
  };
  std::vector<Event> events;
  events.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    if (end[i] <= start[i]) continue;
    events.push_back({start[i], i, true});
    events.push_back({end[i], i, false});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.t < b.t; });

  // A span is a leaf while it is active with no active child. Leaf counts
  // per layer are kept incrementally; the order of events sharing one
  // timestamp does not matter because no time passes between them.
  std::vector<uint8_t> active(n, 0);
  std::vector<uint32_t> active_children(n, 0);
  std::array<int64_t, kNumLayers> leaves{};
  int64_t total_leaves = 0;
  auto add_leaf = [&](size_t i, int64_t delta) {
    leaves[static_cast<size_t>(LayerOf(spans[i].op))] += delta;
    total_leaves += delta;
  };
  for (size_t e = 0; e < events.size(); ++e) {
    const Event& ev = events[e];
    const size_t i = ev.span;
    const int32_t p = spans[i].parent;
    if (ev.begins) {
      active[i] = 1;
      if (active_children[i] == 0) add_leaf(i, +1);
      if (p >= 0) {
        const auto pi = static_cast<size_t>(p);
        if (active[pi] != 0 && active_children[pi] == 0) add_leaf(pi, -1);
        ++active_children[pi];
      }
    } else {
      if (active_children[i] == 0) add_leaf(i, -1);
      active[i] = 0;
      if (p >= 0) {
        const auto pi = static_cast<size_t>(p);
        --active_children[pi];
        if (active[pi] != 0 && active_children[pi] == 0) add_leaf(pi, +1);
      }
    }
    if (e + 1 < events.size() && total_leaves > 0) {
      const double dt = static_cast<double>(events[e + 1].t - ev.t);
      for (size_t l = 0; l < kNumLayers; ++l) {
        if (leaves[l] != 0) {
          self[l] += dt * static_cast<double>(leaves[l]) /
                     static_cast<double>(total_leaves);
        }
      }
    }
  }
  return self;
}

double TailPercentileFor(size_t n) {
  // Percentile p leaves n * (100 - p) / 100 samples beyond it; the
  // thresholds are the n at which that reaches 10.
  struct Rung {
    double percentile;
    size_t min_samples;
  };
  static constexpr Rung kLadder[] = {{99.0, 1000}, {90.0, 100}, {50.0, 20}};
  for (const Rung& r : kLadder) {
    if (n >= r.min_samples) return r.percentile;
  }
  return 0.0;
}

}  // namespace psibench
