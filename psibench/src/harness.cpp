#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/dataset.hpp"
#include "core/graph.hpp"
#include "core/label_stats.hpp"
#include "exec/executor.hpp"
#include "gen/dataset_gen.hpp"
#include "gen/query_gen.hpp"
#include "gen/rng.hpp"
#include "grapes/grapes.hpp"
#include "graphql/graphql.hpp"
#include "match/candidate_index.hpp"
#include "match/parallel.hpp"
#include "metrics/metrics.hpp"
#include "plan/plan.hpp"
#include "plan/planner.hpp"
#include "psi/engine.hpp"
#include "quicksi/quicksi.hpp"
#include "rewrite/rewrite_cache.hpp"
#include "spath/spath.hpp"
#include "trace.hpp"
#include "vf2/vf2.hpp"
#include "workload/runner.hpp"

namespace psibench {
namespace {

using Clock = std::chrono::steady_clock;
using psi::Graph;

/// Set-up runs per benchmark run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// The traced run fails when the per-layer self times and the traced
/// latency differ by more than this share of the latency.
constexpr double kAccountingTolerance = 0.05;
/// Failed requests per client and window that are described in the log.
constexpr uint64_t kLoggedFailures = 5;
/// Traced requests of client 0 whose spans are written to --trace-out.
constexpr size_t kTraceOutRequests = 200;
/// Skew of the Zipf-distributed request streams.
constexpr double kZipfExponent = 0.8;
/// Per-query (per-pair, for FTV) cap of the reference matcher; queries it
/// cannot answer within it are dropped from the workload.
constexpr auto kReferenceCap = std::chrono::milliseconds(50);

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(const std::vector<double>& v) { return psi::Percentile(v, 50.0); }

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Answer to one request: the capped embedding count or the decision (as
/// 0/1) for NFV, the matched stored graphs in id order for FTV.
struct Answer {
  uint64_t value = 0;
  std::vector<uint32_t> graphs;
  bool operator==(const Answer&) const = default;
  void Flip() { value ^= 1; }
};

/// What the traced run adds up over its requests.
struct TraceTotals {
  uint64_t requests = 0;
  // From each race's PlanResult.
  uint64_t races = 0;
  uint64_t wins = 0;
  uint64_t variant_runs = 0;
  uint64_t escalated = 0;
  double winner_ms = 0.0;
  uint64_t winner_tried = 0;
  uint64_t nodes = 0;  // recursion nodes over every started variant
  uint64_t tried = 0;  // candidates tried over every started variant
  uint64_t filter_survivors = 0;
  // From the spans.
  std::array<double, kNumOps> op_ns{};
  std::array<uint64_t, kNumOps> op_calls{};
  double start_lag_ns = 0.0;
  uint64_t started_races = 0;
  double cancel_lag_ns = 0.0;
  uint64_t won_races = 0;
  double body_ns = 0.0;
  double loser_body_ns = 0.0;
  std::array<double, kNumLayers> self_ns{};
  std::vector<double> latency_ms;

  void Add(const TraceTotals& o) {
    requests += o.requests;
    races += o.races;
    wins += o.wins;
    variant_runs += o.variant_runs;
    escalated += o.escalated;
    winner_ms += o.winner_ms;
    winner_tried += o.winner_tried;
    nodes += o.nodes;
    tried += o.tried;
    filter_survivors += o.filter_survivors;
    for (size_t i = 0; i < op_ns.size(); ++i) {
      op_ns[i] += o.op_ns[i];
      op_calls[i] += o.op_calls[i];
    }
    start_lag_ns += o.start_lag_ns;
    started_races += o.started_races;
    cancel_lag_ns += o.cancel_lag_ns;
    won_races += o.won_races;
    body_ns += o.body_ns;
    loser_body_ns += o.loser_body_ns;
    for (size_t l = 0; l < kNumLayers; ++l) self_ns[l] += o.self_ns[l];
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
  }

  double MeanOpNs(Op op) const {
    const auto i = static_cast<size_t>(op);
    return Ratio(op_ns[i], static_cast<double>(op_calls[i]));
  }
};

void NoteRace(const psi::PlanResult& pr, TraceTotals* t) {
  ++t->races;
  t->variant_runs += pr.variant_runs;
  if (pr.escalated) ++t->escalated;
  if (pr.race.completed()) {
    ++t->wins;
    t->winner_ms += pr.race.result.elapsed_ms();
    t->winner_tried += pr.race.result.stats.candidates_tried;
  }
  for (const psi::WorkerOutcome& w : pr.race.workers) {
    if (!psi::VariantStarted(w.result)) continue;
    t->nodes += w.result.stats.recursion_nodes;
    t->tried += w.result.stats.candidates_tried;
  }
}

/// Adds one finished request's spans into `t`.
void AnalyzeSpans(const std::vector<Span>& spans, TraceTotals* t) {
  const size_t n = spans.size();
  struct RaceAcc {
    int64_t first_start = INT64_MAX;
    double body_ns = 0.0;
    int32_t winner_span = -1;
  };
  std::vector<RaceAcc> races(n);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    t->op_ns[static_cast<size_t>(s.op)] += dur;
    ++t->op_calls[static_cast<size_t>(s.op)];
    if (s.op != Op::kVariant || s.parent < 0) continue;
    const auto r = static_cast<size_t>(s.parent);
    RaceAcc& acc = races[r];
    acc.first_start = std::min(acc.first_start, s.start_ns);
    acc.body_ns += dur;
    // A staged plan can race a variant twice; the last run is the winner.
    if (s.variant == spans[r].variant &&
        (acc.winner_span < 0 ||
         spans[static_cast<size_t>(acc.winner_span)].start_ns < s.start_ns)) {
      acc.winner_span = static_cast<int32_t>(i);
    }
  }
  for (size_t r = 0; r < n; ++r) {
    if (spans[r].op != Op::kRace || races[r].first_start == INT64_MAX) {
      continue;
    }
    const RaceAcc& acc = races[r];
    ++t->started_races;
    t->start_lag_ns += static_cast<double>(acc.first_start - spans[r].start_ns);
    t->body_ns += acc.body_ns;
    if (acc.winner_span < 0) {
      t->loser_body_ns += acc.body_ns;
      continue;
    }
    const Span& w = spans[static_cast<size_t>(acc.winner_span)];
    ++t->won_races;
    t->loser_body_ns += acc.body_ns - static_cast<double>(w.end_ns - w.start_ns);
    t->cancel_lag_ns += static_cast<double>(spans[r].end_ns - w.end_ns);
  }
  const auto self = SelfTimesNs(spans);
  for (size_t l = 0; l < kNumLayers; ++l) t->self_ns[l] += self[l];
}

/// Gauge snapshot the untraced window's per-layer deltas come from.
struct Counters {
  psi::PoolGauges gauges;  // executor, match kernel and FTV filter
  uint64_t rewrite_hits = 0;
  uint64_t rewrite_misses = 0;
  uint64_t rewrite_entries = 0;
  uint64_t pairs = 0;  // FTV verifications
  uint64_t matched_pairs = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the serving state from scratch and returns the seconds its
  /// timed step took; the state of the last call serves.
  virtual double Setup() = 0;
  /// Set-up time of single layers (the setup.* metrics), in seconds.
  virtual void MeasureSetupLayers(double setup_s,
                                  std::vector<Metric>* out) = 0;
  virtual size_t num_clients() const = 0;
  /// Requests each client serves before measuring starts.
  virtual size_t warmup() const = 0;
  /// Query served at position `pos` of client `client`'s stream.
  virtual size_t QueryAt(size_t client, size_t pos) const = 0;
  virtual const Graph& query(size_t q) const = 0;
  virtual const Answer& expected(size_t q) const = 0;
  /// Serves query `q` through the public call; false on a typed error.
  virtual bool Serve(size_t q, Answer* out) = 0;
  /// Serves query `q` through the same sequence of layer calls the
  /// public call makes, with a span around each.
  virtual bool ServeTraced(size_t q, RequestTrace* trace, TraceTotals* totals,
                           Answer* out) = 0;
  virtual Counters Snapshot() const = 0;
};

// ---- NFV: one stored graph, a PsiEngine in kPool ----

struct NfvSpec {
  /// Contains (decision) when true, CountEmbeddings otherwise.
  bool decision;
  size_t clients;
  std::vector<uint32_t> query_edges;
  /// Requests draw from the pool Zipf-skewed when true; otherwise the
  /// clients take turns through the pool, so every request is a new query.
  bool zipf;
  size_t warmup;
};

/// The engine's matchers: GraphQL and sPath, as in the README's serving
/// setup and examples/concurrent_serving.cpp.
std::vector<std::unique_ptr<psi::Matcher>> PortfolioMatchers() {
  std::vector<std::unique_ptr<psi::Matcher>> out;
  out.push_back(std::make_unique<psi::GraphQlMatcher>());
  out.push_back(std::make_unique<psi::SPathMatcher>());
  return out;
}

/// `count` queries of the given edge counts, grown as paper §3.4 grows
/// them from a stored graph (NFV) or a collection (FTV). Sizes interleave
/// so every stretch of the stream mixes them.
template <typename Data>
std::vector<psi::gen::Query> GenerateQueries(const Data& data,
                                             std::span<const uint32_t> edges,
                                             size_t count, uint64_t seed) {
  std::vector<std::vector<psi::gen::Query>> per_size;
  const size_t each = (count + edges.size() - 1) / edges.size();
  for (uint32_t e : edges) {
    auto w = psi::gen::GenerateWorkload(data, static_cast<uint32_t>(each), e,
                                        Mix(seed, e));
    if (!w.ok()) throw std::runtime_error("query generation failed");
    per_size.push_back(std::move(w).value());
  }
  std::vector<psi::gen::Query> out;
  for (size_t i = 0; out.size() < count; ++i) {
    out.push_back(std::move(per_size[i % edges.size()][i / edges.size()]));
  }
  return out;
}

/// Runs `fn(i)` for i in [0, n) on every CPU.
template <typename Fn>
void ParallelFor(size_t n, const Fn& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < Nproc(); ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (auto& th : threads) th.join();
}

class NfvWorkload : public Workload {
 public:
  NfvWorkload(NfvSpec spec, Graph data, size_t pool_size, uint64_t seed,
              std::unique_ptr<psi::Matcher> reference, std::ostream& log)
      : spec_(std::move(spec)), data_(std::move(data)), pool_(Nproc()) {
    options_.mode = psi::RaceMode::kPool;
    options_.executor = &pool_;
    spec_.clients = std::min(spec_.clients, Nproc());

    auto t0 = Clock::now();
    std::vector<Graph> candidates;
    for (psi::gen::Query& q :
         GenerateQueries(data_, spec_.query_edges, pool_size, seed)) {
      candidates.push_back(std::move(q.graph));
    }
    const double gen_s = SecondsSince(t0);

    // Reference answers: one matcher outside the served path's racing,
    // rewriting and planning, with the candidate index and the multiway
    // kernel off, one query at a time per thread.
    t0 = Clock::now();
    reference->set_candidate_index(nullptr);
    if (!reference->Prepare(data_).ok()) {
      throw std::runtime_error("reference prepare failed");
    }
    std::vector<psi::MatchResult> ref(candidates.size());
    ParallelFor(candidates.size(), [&](size_t i) {
      psi::MatchOptions mo;
      mo.max_embeddings = spec_.decision ? 1 : options_.max_embeddings;
      mo.multiway = 0;
      mo.deadline = psi::Deadline::After(kReferenceCap);
      ref[i] = reference->Match(candidates[i], mo);
    });
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (!ref[i].complete) continue;
      queries_.push_back(std::move(candidates[i]));
      Answer a;
      a.value = spec_.decision ? (ref[i].found() ? 1 : 0)
                               : ref[i].embedding_count;
      expected_.push_back(std::move(a));
    }
    if (queries_.empty()) throw std::runtime_error("no answerable query");
    log << "inputs: stored graph " << data_.num_vertices() << " vertices, "
        << data_.num_edges() << " edges; " << queries_.size()
        << " queries kept, " << (candidates.size() - queries_.size())
        << " dropped (reference " << reference->name()
        << " missed its cap); generated in " << gen_s << " s, reference in "
        << SecondsSince(t0) << " s\n";

    if (spec_.zipf) {
      const psi::ZipfSampler zipf(static_cast<uint32_t>(queries_.size()),
                                 kZipfExponent);
      constexpr size_t kStreamLength = 1 << 18;
      for (size_t c = 0; c < spec_.clients; ++c) {
        psi::Rng rng(Mix(seed, 1000 + c));
        std::vector<uint32_t> s(kStreamLength);
        for (auto& q : s) q = zipf.Sample(&rng);
        streams_.push_back(std::move(s));
      }
    }
  }

  double Setup() override {
    engine_.reset();
    engine_ = std::make_unique<psi::PsiEngine>(options_);
    for (auto& m : PortfolioMatchers()) engine_->AddMatcher(std::move(m));
    const auto t0 = Clock::now();
    if (!engine_->Prepare(data_).ok()) {
      throw std::runtime_error("PsiEngine::Prepare failed");
    }
    const double s = SecondsSince(t0);
    // The traced run's planner, configured as PsiEngine::Prepare
    // configures the engine's own.
    psi::QueryPlannerOptions po;
    po.budget = options_.budget;
    po.staged = options_.staged;
    po.probe_fraction = options_.probe_fraction;
    po.portfolio_limit = options_.portfolio_limit;
    po.min_samples = options_.plan_min_samples;
    po.split_workers = options_.split_workers;
    planner_.Configure(&engine_->portfolio(), &engine_->stats(), po);
    trace_cache_.Clear();
    return s;
  }

  void MeasureSetupLayers(double, std::vector<Metric>* out) override {
    std::vector<double> index_s, prepare_s;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      auto t0 = Clock::now();
      auto index = psi::CandidateIndex::Build(data_);
      index_s.push_back(SecondsSince(t0));
      auto matchers = PortfolioMatchers();
      t0 = Clock::now();
      for (auto& m : matchers) {
        m->set_candidate_index(index);
        if (!m->Prepare(data_).ok()) {
          throw std::runtime_error("Matcher::Prepare failed");
        }
      }
      prepare_s.push_back(SecondsSince(t0));
    }
    out->push_back({"setup.candidate_index_s", Median(index_s), "s"});
    out->push_back({"setup.matcher_prepare_s", Median(prepare_s), "s"});
    out->push_back({"setup.grapes_build_s", 0.0, "s"});
  }

  size_t num_clients() const override { return spec_.clients; }
  size_t warmup() const override { return spec_.warmup; }
  // Without Zipf, clients take turns through the pool: request `pos` of
  // client c is the pool's (pos * clients + c)-th query.
  size_t QueryAt(size_t client, size_t pos) const override {
    if (!spec_.zipf) return (pos * spec_.clients + client) % queries_.size();
    return streams_[client][pos % streams_[client].size()];
  }
  const Graph& query(size_t q) const override { return queries_[q]; }
  const Answer& expected(size_t q) const override { return expected_[q]; }

  bool Serve(size_t q, Answer* out) override {
    if (spec_.decision) {
      auto r = engine_->Contains(queries_[q]);
      if (!r.ok()) return false;
      out->value = *r ? 1 : 0;
    } else {
      auto r = engine_->CountEmbeddings(queries_[q]);
      if (!r.ok()) return false;
      out->value = *r;
    }
    return true;
  }

  // The layer calls of PsiEngine::Run, one by one: plan, rewrite each
  // planned entry, ExecutePlan over wrapped variants, observe.
  bool ServeTraced(size_t q, RequestTrace* trace, TraceTotals* totals,
                   Answer* out) override {
    const Graph& query = queries_[q];
    const psi::Portfolio& portfolio = engine_->portfolio();
    const uint64_t cap = spec_.decision ? 1 : options_.max_embeddings;
    const int32_t root = trace->Begin(Op::kRequest, -1);

    int32_t span = trace->Begin(Op::kPlan, root);
    const psi::QueryPlan plan = planner_.Plan(query);
    trace->End(span);

    psi::RaceOptions base;
    base.budget = options_.budget;
    base.max_embeddings = cap;
    base.mode = options_.mode;
    base.executor = options_.executor;
    base.guard_period = options_.guard_period;
    base.on_overload = options_.fail_fast_on_overload
                           ? psi::OverloadResponse::kFail
                           : psi::OverloadResponse::kFallbackSequential;

    const size_t n = portfolio.entries.size();
    std::vector<uint8_t> referenced(n, 0);
    for (const psi::PlanStage& stage : plan.stages) {
      for (const psi::PlanStep& step : stage.steps) {
        if (step.variant < n) referenced[step.variant] = 1;
      }
    }
    int32_t race = -1;  // set before any variant body can run
    std::vector<psi::RaceVariant> universe(n);
    for (size_t i = 0; i < n; ++i) {
      const psi::PortfolioEntry& e = portfolio.entries[i];
      universe[i].name = psi::EntryName(e);
      if (referenced[i] == 0) continue;
      span = trace->Begin(Op::kRewrite, root);
      auto rq = trace_cache_.Get(query, e.rewriting, engine_->stats(),
                                 e.random_seed);
      trace->End(span);
      const auto v = static_cast<int32_t>(i);
      universe[i].run = [trace, &race, v, m = e.matcher,
                         rq](const psi::MatchOptions& mo) {
        const int32_t s = trace->Begin(Op::kVariant, race, v);
        psi::MatchResult r = m->Match(rq->graph, mo);
        trace->End(s);
        return r;
      };
      universe[i].run_split = [trace, &race, v, m = e.matcher, rq,
                               exec = base.executor](
                                  const psi::MatchOptions& mo,
                                  uint32_t workers) {
        const int32_t s = trace->Begin(Op::kVariant, race, v);
        psi::ParallelMatchOptions po = psi::ParallelMatchOptions::FromEnv();
        po.split = workers;
        po.executor = exec;
        psi::MatchResult r = psi::MatchParallel(*m, rq->graph, mo, po);
        trace->End(s);
        return r;
      };
    }
    race = trace->Begin(Op::kRace, root);
    const psi::PlanResult pr = psi::ExecutePlan(plan, universe, base);
    trace->EndRace(race, pr.race.winner);

    if (options_.learn && pr.race.completed()) {
      span = trace->Begin(Op::kObserve, root);
      planner_.Observe(plan.features, static_cast<size_t>(pr.race.winner));
      trace->End(span);
    }
    trace->End(root);
    NoteRace(pr, totals);
    if (!pr.race.completed()) return false;
    out->value = spec_.decision ? (pr.race.result.found() ? 1 : 0)
                                : pr.race.result.embedding_count;
    return true;
  }

  Counters Snapshot() const override {
    Counters c;
    c.gauges = engine_->pool_gauges();
    const auto rs = engine_->rewrite_cache_stats();
    c.rewrite_hits = rs.hits;
    c.rewrite_misses = rs.misses;
    // Prepare empties the engine's cache and nothing evicts, so every
    // miss since then is one entry.
    c.rewrite_entries = rs.misses;
    return c;
  }

 private:
  NfvSpec spec_;
  Graph data_;
  std::vector<Graph> queries_;
  std::vector<Answer> expected_;
  std::vector<std::vector<uint32_t>> streams_;
  psi::Executor pool_;
  psi::PsiEngineOptions options_;
  std::unique_ptr<psi::PsiEngine> engine_;
  // The traced run's own planner and rewrite cache.
  psi::QueryPlanner planner_;
  psi::RewriteCache trace_cache_;
};

// ---- FTV: a graph collection, Grapes filtering, raced verification ----

class FtvWorkload : public Workload {
 public:
  FtvWorkload(psi::GraphDataset dataset, std::vector<uint32_t> query_edges,
              size_t pool_size, size_t clients, size_t warmup, uint64_t seed,
              std::ostream& log)
      : dataset_(std::move(dataset)),
        stats_(dataset_.ComputeLabelStats()),
        clients_(std::min(clients, Nproc())),
        warmup_(warmup),
        pool_(Nproc()) {
    auto t0 = Clock::now();
    std::vector<psi::gen::Query> candidates =
        GenerateQueries(dataset_, query_edges, pool_size, seed);
    const double gen_s = SecondsSince(t0);

    // Reference answers without any FTV index: VF2 against every stored
    // graph, candidate index and multiway kernel off.
    t0 = Clock::now();
    std::vector<std::unique_ptr<psi::Vf2Matcher>> vf2;
    for (const Graph& g : dataset_.graphs()) {
      vf2.push_back(std::make_unique<psi::Vf2Matcher>());
      vf2.back()->set_candidate_index(nullptr);
      if (!vf2.back()->Prepare(g).ok()) {
        throw std::runtime_error("reference prepare failed");
      }
    }
    std::vector<Answer> ref(candidates.size());
    std::vector<uint8_t> answered(candidates.size(), 1);
    ParallelFor(candidates.size(), [&](size_t i) {
      for (uint32_t gid = 0; gid < vf2.size(); ++gid) {
        psi::MatchOptions mo;
        mo.max_embeddings = 1;
        mo.multiway = 0;
        mo.deadline = psi::Deadline::After(kReferenceCap);
        const psi::MatchResult r = vf2[gid]->Match(candidates[i].graph, mo);
        if (!r.complete) {
          answered[i] = 0;
          return;
        }
        if (r.found()) ref[i].graphs.push_back(gid);
      }
    });
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (answered[i] == 0) continue;
      queries_.push_back(std::move(candidates[i]));
      expected_.push_back(std::move(ref[i]));
    }
    if (queries_.empty()) throw std::runtime_error("no answerable query");
    log << "inputs: " << dataset_.size() << " stored graphs; "
        << queries_.size() << " queries kept, "
        << (candidates.size() - queries_.size())
        << " dropped (reference VF2 missed its cap); generated in " << gen_s
        << " s, reference in " << SecondsSince(t0) << " s\n";
  }

  double Setup() override {
    index_.reset();
    psi::GrapesOptions o;
    o.filter_shards = static_cast<uint32_t>(Nproc());
    o.executor = &pool_;
    index_ = std::make_unique<psi::GrapesIndex>(o);
    const auto t0 = Clock::now();
    if (!index_->Build(dataset_).ok()) {
      throw std::runtime_error("GrapesIndex::Build failed");
    }
    const double s = SecondsSince(t0);
    cache_.Clear();
    trace_cache_.Clear();
    return s;
  }

  void MeasureSetupLayers(double setup_s, std::vector<Metric>* out) override {
    out->push_back({"setup.candidate_index_s", 0.0, "s"});
    out->push_back({"setup.matcher_prepare_s", 0.0, "s"});
    out->push_back({"setup.grapes_build_s", setup_s, "s"});
  }

  size_t num_clients() const override { return clients_; }
  size_t warmup() const override { return warmup_; }
  // Clients take turns through the pool: request `pos` of client c is the
  // pool's (pos * clients + c)-th query, wrapping around.
  size_t QueryAt(size_t client, size_t pos) const override {
    return (pos * clients_ + client) % queries_.size();
  }
  const Graph& query(size_t q) const override { return queries_[q].graph; }
  const Answer& expected(size_t q) const override { return expected_[q]; }

  bool Serve(size_t q, Answer* out) override {
    const std::vector<psi::FtvPairRecord> records =
        psi::RunFtvWorkloadPsiParallel(
            *index_, std::span(&queries_[q], 1), kRewritings, stats_,
            psi::RunnerOptions{}, psi::RaceMode::kPool, &pool_,
            /*planner=*/nullptr, &cache_);
    bool ok = true;
    uint64_t matched = 0;
    for (const psi::FtvPairRecord& r : records) {
      if (r.killed || r.status != psi::Status::Code::kOk) ok = false;
      if (r.matched) {
        ++matched;
        out->graphs.push_back(r.graph_id);
      }
    }
    pairs_ += records.size();
    matched_pairs_ += matched;
    return ok;
  }

  // FilterSharded, then per candidate GetInstances and a race of
  // VerifyCandidate variants, the candidates fanned out on the pool as
  // RunFtvWorkloadPsiParallel fans them out (without its filter/verify
  // pipelining).
  bool ServeTraced(size_t q, RequestTrace* trace, TraceTotals* totals,
                   Answer* out) override {
    const Graph& query = queries_[q].graph;
    const psi::RunnerOptions runner;
    const auto budget = std::chrono::nanoseconds(
        static_cast<int64_t>(runner.cap_ms * 1e6));
    const int32_t root = trace->Begin(Op::kRequest, -1);
    int32_t span = trace->Begin(Op::kFilter, root);
    const std::vector<psi::GrapesCandidate> cands =
        index_->FilterSharded(query, psi::Deadline::After(budget));
    trace->End(span);

    std::vector<int8_t> outcome(cands.size(), -1);  // -1 killed, 0/1 found
    std::mutex totals_mutex;
    auto verify = [&](size_t k, int32_t parent) {
      int32_t s = trace->Begin(Op::kRewrite, parent);
      const auto instances =
          trace_cache_.GetInstances(query, kRewritings, stats_);
      trace->End(s);
      int32_t race = -1;
      std::vector<psi::RaceVariant> universe;
      for (size_t i = 0; i < instances.size(); ++i) {
        const auto v = static_cast<int32_t>(i);
        universe.push_back(psi::RaceVariant{
            std::string(psi::ToString(kRewritings[i])),
            [&, v, inst = instances[i]](const psi::MatchOptions& mo) {
              const int32_t vs = trace->Begin(Op::kVariant, race, v);
              psi::MatchResult r =
                  index_->VerifyCandidate(inst->graph, cands[k], mo);
              trace->End(vs);
              return r;
            }});
      }
      psi::RaceOptions base;
      base.budget = budget;
      base.max_embeddings = 1;
      base.mode = psi::RaceMode::kPool;
      base.executor = &pool_;
      race = trace->Begin(Op::kRace, parent);
      const psi::PlanResult pr =
          psi::ExecutePlan(psi::FullRacePlan(universe.size()), universe, base);
      trace->EndRace(race, pr.race.winner);
      if (pr.race.completed()) outcome[k] = pr.race.result.found() ? 1 : 0;
      std::lock_guard<std::mutex> lock(totals_mutex);
      NoteRace(pr, totals);
    };
    std::vector<uint8_t> displaced(cands.size(), 0);
    std::vector<int32_t> queued(cands.size(), -1);
    // The fan-out span keeps the join's hand-back in the exec layer.
    const int32_t fan_out = trace->Begin(Op::kFanOut, root);
    {
      psi::TaskGroup group(pool_);
      for (size_t k = 0; k < cands.size(); ++k) {
        queued[k] = trace->Begin(Op::kQueue, fan_out);
        const psi::Admission a =
            group.Spawn([&, k](psi::TaskStart start) {
              trace->End(queued[k]);
              if (start != psi::TaskStart::kRun) {
                displaced[k] = 1;
                return;
              }
              verify(k, fan_out);
            });
        if (a == psi::Admission::kRejected) {
          trace->End(queued[k]);
          displaced[k] = 1;
        }
      }
      group.Wait();
    }
    trace->End(fan_out);
    for (size_t k = 0; k < cands.size(); ++k) {
      if (displaced[k] != 0) verify(k, root);
    }
    trace->End(root);
    totals->filter_survivors += cands.size();
    bool ok = true;
    for (size_t k = 0; k < cands.size(); ++k) {
      if (outcome[k] < 0) ok = false;
      if (outcome[k] == 1) out->graphs.push_back(cands[k].graph_id);
    }
    return ok;
  }

  Counters Snapshot() const override {
    Counters c;
    c.gauges = pool_.gauges();
    index_->kernel_stats().AddTo(&c.gauges);
    index_->filter_stats().AddTo(&c.gauges);
    const auto rs = cache_.stats();
    c.rewrite_hits = rs.hits;
    c.rewrite_misses = rs.misses;
    c.rewrite_entries = cache_.size();
    c.pairs = pairs_;
    c.matched_pairs = matched_pairs_;
    return c;
  }

 private:
  static constexpr std::array<psi::Rewriting, 3> kRewritings = {
      psi::Rewriting::kIlf, psi::Rewriting::kInd, psi::Rewriting::kDnd};

  psi::GraphDataset dataset_;
  psi::LabelStats stats_;
  std::vector<psi::gen::Query> queries_;
  std::vector<Answer> expected_;
  size_t clients_;
  size_t warmup_;
  psi::Executor pool_;
  std::unique_ptr<psi::GrapesIndex> index_;
  psi::RewriteCache cache_;        // the served path's, shared by requests
  psi::RewriteCache trace_cache_;  // the traced run's own
  std::atomic<uint64_t> pairs_{0};
  std::atomic<uint64_t> matched_pairs_{0};
};

// ---- Workload catalogue ----
//
// Stored graphs and collections come from fixed generator seeds (they
// stand in for a loaded dataset); the request stream comes from --seed.

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       double seconds, bool tiny,
                                       std::ostream& log) {
  if (name == "nfv-heavy") {
    // Distinct 8- and 10-edge queries, counted up to 1000 embeddings, on a
    // WordNet-like graph whose 5 skewed labels make label slices large.
    // Larger queries straggle: a few in a thousand 16- and 24-edge queries
    // hit the engine's 10 s cap, and a killed request fails the run. Four
    // clients keep every CPU busy: with one, idle-CPU wakeups under
    // hypervisor steal set the wall time. The pool covers the measured
    // window at about twice today's rate (plus warmup), so no query repeats.
    NfvSpec spec{false, 4, {8, 10}, false, tiny ? 5u : 50u};
    const size_t pool =
        tiny ? 30 : static_cast<size_t>(200 + 1000 * seconds);
    return std::make_unique<NfvWorkload>(
        spec, psi::gen::WordnetLike(tiny ? 64 : 4, 13), pool, seed,
        std::make_unique<psi::QuickSiMatcher>(), log);
  }
  if (name == "nfv-light") {
    // Zipf-skewed 4-12-edge decision queries on a Yeast-like graph:
    // matching is cheap, so planning, rewriting and the racer's hand-off
    // carry a large share of each request. Not in BENCHMARK.json: its wall
    // times followed hypervisor steal too closely (psibench/README.md).
    NfvSpec spec{true, 4, {4, 8, 12}, true, tiny ? 20u : 2000u};
    return std::make_unique<NfvWorkload>(
        spec, psi::gen::YeastLike(tiny ? 8 : 1, 11), tiny ? 40 : 4000, seed,
        std::make_unique<psi::QuickSiMatcher>(), log);
  }
  if (name == "ftv-grapes") {
    // A GraphGen-like collection kept small enough that its Grapes index
    // builds in about two seconds; the clients take turns through a pool
    // of 4-12-edge queries.
    psi::gen::GraphGenLikeOptions o;
    o.num_graphs = tiny ? 12 : 100;
    o.avg_nodes = tiny ? 40 : 200;
    o.density = 0.03;
    o.num_labels = 12;
    o.seed = 5;
    const size_t pool =
        tiny ? 24 : static_cast<size_t>(500 + 500 * seconds);
    return std::make_unique<FtvWorkload>(psi::gen::GraphGenLike(o),
                                         std::vector<uint32_t>{4, 8, 12},
                                         pool, 4, tiny ? 5 : 200, seed,
                                         log);
  }
  throw std::runtime_error("unknown workload: " + name);
}

struct WindowResult {
  std::vector<double> latency_ms;
  /// Completion time of each request, in seconds from the window's start,
  /// parallel to latency_ms.
  std::vector<double> done_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  TraceTotals trace;
  std::vector<std::vector<Span>> kept_spans;  // client 0's first requests
};

/// One closed-loop window: every client serves its stream from `start`
/// until `seconds` pass (or `max_requests` each, when non-zero), waiting
/// for each answer before sending the next request.
WindowResult RunWindow(Workload& w, size_t start, double seconds,
                       size_t max_requests, bool traced, int64_t flip,
                       bool keep_spans, std::ostream& log) {
  std::mutex log_mutex;
  const size_t clients = w.num_clients();
  std::vector<WindowResult> per_client(clients);
  std::atomic<bool> go{false};
  Clock::time_point begin{};
  Clock::time_point end{};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      WindowResult& out = per_client[c];
      RequestTrace trace;
      for (size_t i = 0;; ++i) {
        if (max_requests > 0 ? i >= max_requests : Clock::now() >= end) break;
        const size_t q = w.QueryAt(c, start + i);
        Answer got;
        trace.Clear();
        const auto t0 = Clock::now();
        const bool ok = traced ? w.ServeTraced(q, &trace, &out.trace, &got)
                               : w.Serve(q, &got);
        const auto t1 = Clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        out.done_s.push_back(std::chrono::duration<double>(t1 - begin).count());
        if (c == 0 && flip >= 0 && i == static_cast<size_t>(flip)) got.Flip();
        ++out.attempted;
        if (!ok || !(got == w.expected(q))) {
          if (++out.failed <= kLoggedFailures) {
            std::lock_guard<std::mutex> lock(log_mutex);
            log << "failed: client " << c << " request " << i << " query "
                << q << (ok ? " answered " : " typed error, answered ")
                << got.value << "/" << got.graphs.size()
                << " graphs, expected " << w.expected(q).value << "/"
                << w.expected(q).graphs.size() << " graphs, after " << ms
                << " ms\n";
          }
        }
        out.latency_ms.push_back(ms);
        if (traced) {
          ++out.trace.requests;
          out.trace.latency_ms.push_back(ms);
          AnalyzeSpans(trace.spans(), &out.trace);
          if (keep_spans && c == 0 && i < kTraceOutRequests) {
            out.kept_spans.push_back(trace.spans());
          }
        }
      }
    });
  }
  WindowResult total;
  const double cpu0 = CpuSeconds();
  begin = Clock::now();
  end = begin + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  total.wall_s = SecondsSince(begin);
  total.cpu_s = CpuSeconds() - cpu0;
  for (WindowResult& r : per_client) {
    total.latency_ms.insert(total.latency_ms.end(), r.latency_ms.begin(),
                            r.latency_ms.end());
    total.done_s.insert(total.done_s.end(), r.done_s.begin(), r.done_s.end());
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.trace.Add(r.trace);
    for (auto& s : r.kept_spans) total.kept_spans.push_back(std::move(s));
  }
  return total;
}

/// Throughput and tail latency of a window as medians over slices of
/// consecutive completions, at least 1000 requests and at most 10 slices
/// each. A host that steals a vCPU for a second now and then (seen on the
/// reference box) then moves one slice, not the reported value. A window
/// of fewer than 2000 requests is one slice.
struct SlicedStats {
  double throughput_qps = 0.0;
  double tail_ms = 0.0;
  double tail_percentile = 0.0;
  size_t slices = 0;
  size_t slice_requests = 0;
};

SlicedStats SliceWindow(const WindowResult& win) {
  const size_t n = win.latency_ms.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return win.done_s[a] < win.done_s[b];
  });
  SlicedStats out;
  out.slices = std::clamp<size_t>(n / 1000, 1, 10);
  out.slice_requests = n / out.slices;
  out.tail_percentile = TailPercentileFor(out.slice_requests);
  if (out.slices == 1) {
    out.throughput_qps = Ratio(static_cast<double>(n), win.wall_s);
    out.tail_ms = psi::Percentile(win.latency_ms, out.tail_percentile);
    return out;
  }
  std::vector<double> qps, tails;
  for (size_t k = 0; k < out.slices; ++k) {
    const size_t lo = n * k / out.slices;
    const size_t hi = n * (k + 1) / out.slices;
    std::vector<double> lat;
    for (size_t i = lo; i < hi; ++i) lat.push_back(win.latency_ms[order[i]]);
    const double span = win.done_s[order[hi - 1]] - win.done_s[order[lo]];
    qps.push_back(Ratio(static_cast<double>(hi - lo - 1), span));
    tails.push_back(psi::Percentile(lat, out.tail_percentile));
  }
  out.throughput_qps = Median(qps);
  out.tail_ms = Median(tails);
  return out;
}

void WriteSpans(const std::string& path,
                const std::vector<std::vector<Span>>& requests) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << "request\tspan\tparent\top\tlayer\tstart_ns\tend_ns\tvariant\n";
  for (size_t r = 0; r < requests.size(); ++r) {
    const int64_t t0 = requests[r].empty() ? 0 : requests[r][0].start_ns;
    for (size_t i = 0; i < requests[r].size(); ++i) {
      const Span& s = requests[r][i];
      f << r << '\t' << i << '\t' << s.parent << '\t' << OpName(s.op) << '\t'
        << LayerName(LayerOf(s.op)) << '\t' << (s.start_ns - t0) << '\t'
        << (s.end_ns - t0) << '\t' << s.variant << '\n';
    }
  }
}

}  // namespace

size_t Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"nfv-heavy", "nfv-light",
                                                  "ftv-grapes"};
  return kNames;
}

std::vector<uint64_t> RequestStreamFingerprints(const std::string& workload,
                                                uint64_t seed, size_t n,
                                                bool tiny) {
  std::ostringstream discard;
  auto w = MakeWorkload(workload, seed, 1.0, tiny, discard);
  std::vector<uint64_t> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(psi::QueryFingerprint(w->query(w->QueryAt(0, i))));
  }
  return out;
}

RunReport RunWorkload(const RunConfig& cfg, std::ostream& log) {
  auto w = MakeWorkload(cfg.workload, cfg.seed, cfg.seconds, cfg.tiny, log);

  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) setups.push_back(w->Setup());
  const double setup_s = Median(setups);
  log << "setup: " << setups.size() << " builds, median " << setup_s
      << " s\n";

  RunReport report;
  const WindowResult warm =
      RunWindow(*w, 0, 0.0, w->warmup(), false, -1, false, log);
  const size_t start = w->warmup();
  const Counters c0 = w->Snapshot();
  const WindowResult win =
      RunWindow(*w, start, cfg.seconds, 0, false, cfg.flip_answer,
                false, log);
  const Counters c1 = w->Snapshot();
  report.attempted = warm.attempted + win.attempted;
  report.failed = warm.failed + win.failed;

  const double p50 = psi::Percentile(win.latency_ms, 50.0);
  const SlicedStats sliced = SliceWindow(win);
  const auto req = static_cast<double>(win.attempted);
  log << "window: " << win.attempted << " requests from "
      << w->num_clients() << " client(s) in " << win.wall_s << " s, "
      << win.failed << " failed (failed_frac "
      << Ratio(static_cast<double>(win.failed), req) << ")\n"
      << "throughput_qps and latency_tail_ms: medians over " << sliced.slices
      << " slices of " << sliced.slice_requests
      << " requests; the tail is p" << sliced.tail_percentile << " ("
      << static_cast<size_t>(static_cast<double>(sliced.slice_requests) *
                             (100.0 - sliced.tail_percentile) / 100.0)
      << " samples beyond it per slice)\n";

  if (!cfg.trace) {
    report.metrics = {
        {"setup_s", setup_s, "s"},
        {"throughput_qps", sliced.throughput_qps, "req/s"},
        {"latency_p50_ms", p50, "ms"},
        {"latency_tail_ms", sliced.tail_ms, "ms"},
        {"cpu_ms_per_req", Ratio(win.cpu_s * 1000.0, req), "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    report.correct = report.failed == 0;
    return report;
  }

  // Traced run: the same stream positions again, through the layer calls.
  const WindowResult tr = RunWindow(*w, start, cfg.seconds, 0, true, -1,
                                    !cfg.trace_out.empty(), log);
  report.attempted += tr.attempted;
  report.failed += tr.failed;
  if (!cfg.trace_out.empty()) WriteSpans(cfg.trace_out, tr.kept_spans);

  const TraceTotals& t = tr.trace;
  const auto treq = static_cast<double>(t.requests);
  const psi::PoolGauges& g0 = c0.gauges;
  const psi::PoolGauges& g1 = c1.gauges;
  auto delta = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  auto per_req = [&](uint64_t a, uint64_t b) { return Ratio(delta(a, b), req); };
  auto self_ms = [&](Layer l) {
    return Ratio(t.self_ns[static_cast<size_t>(l)], treq) / 1e6;
  };
  double attributed_ms = 0.0;
  for (size_t l = 1; l < kNumLayers; ++l) {
    attributed_ms += self_ms(static_cast<Layer>(l));
  }
  double mean_latency = 0.0;
  for (double ms : t.latency_ms) mean_latency += ms;
  mean_latency = Ratio(mean_latency, treq);
  const double gap = Ratio(mean_latency - attributed_ms, mean_latency);
  const double traced_p50 = psi::Percentile(t.latency_ms, 50.0);
  const bool ftv = t.op_calls[static_cast<size_t>(Op::kFilter)] > 0;

  std::vector<Metric>& m = report.metrics;
  m.push_back({"plan.plan_us", t.MeanOpNs(Op::kPlan) / 1e3, "us"});
  m.push_back({"plan.observe_us", t.MeanOpNs(Op::kObserve) / 1e3, "us"});
  m.push_back({"plan.variant_runs_per_req",
               Ratio(static_cast<double>(t.variant_runs), treq), "count"});
  m.push_back({"plan.escalated_frac",
               Ratio(static_cast<double>(t.escalated),
                     static_cast<double>(t.races)),
               "ratio"});
  m.push_back({"plan.self_ms", self_ms(Layer::kPlan), "ms"});
  m.push_back({"rewrite.get_us", t.MeanOpNs(Op::kRewrite) / 1e3, "us"});
  m.push_back({"rewrite.hit_rate",
               Ratio(delta(c0.rewrite_hits, c1.rewrite_hits),
                     delta(c0.rewrite_hits, c1.rewrite_hits) +
                         delta(c0.rewrite_misses, c1.rewrite_misses)),
               "ratio"});
  m.push_back({"rewrite.entries", static_cast<double>(c1.rewrite_entries),
               "count"});
  m.push_back({"rewrite.self_ms", self_ms(Layer::kRewrite), "ms"});
  m.push_back({"exec.tasks_per_req",
               per_req(g0.tasks_submitted, g1.tasks_submitted), "count"});
  m.push_back({"exec.queue_wait_ms",
               Ratio(g1.queue_wait_total_ms - g0.queue_wait_total_ms,
                     delta(g0.queue_wait_count, g1.queue_wait_count)),
               "ms"});
  m.push_back({"exec.discard_frac",
               Ratio(delta(g0.tasks_discarded, g1.tasks_discarded),
                     delta(g0.tasks_executed, g1.tasks_executed)),
               "ratio"});
  m.push_back({"exec.self_ms", self_ms(Layer::kExec), "ms"});
  m.push_back({"exec.displaced_frac",
               Ratio(delta(g0.tasks_rejected, g1.tasks_rejected) +
                         delta(g0.tasks_shed, g1.tasks_shed),
                     delta(g0.tasks_submitted, g1.tasks_submitted)),
               "ratio"});
  m.push_back({"psi.race_ms", t.MeanOpNs(Op::kRace) / 1e6, "ms"});
  m.push_back({"psi.start_lag_us",
               Ratio(t.start_lag_ns, static_cast<double>(t.started_races)) /
                   1e3,
               "us"});
  m.push_back({"psi.cancel_lag_us",
               Ratio(t.cancel_lag_ns, static_cast<double>(t.won_races)) / 1e3,
               "us"});
  m.push_back({"psi.loser_cpu_frac", Ratio(t.loser_body_ns, t.body_ns),
               "ratio"});
  m.push_back({"psi.self_ms", self_ms(Layer::kPsi), "ms"});
  m.push_back({"match.winner_ms",
               Ratio(t.winner_ms, static_cast<double>(t.wins)), "ms"});
  m.push_back({"match.winner_tried",
               Ratio(static_cast<double>(t.winner_tried),
                     static_cast<double>(t.wins)),
               "count"});
  m.push_back({"match.tried_per_req",
               per_req(g0.kernel_candidates_tried, g1.kernel_candidates_tried),
               "count"});
  m.push_back({"match.yield",
               Ratio(static_cast<double>(t.nodes),
                     static_cast<double>(t.tried)),
               "ratio"});
  m.push_back({"match.nlf_rejects_per_req",
               per_req(g0.kernel_nlf_rejects, g1.kernel_nlf_rejects),
               "count"});
  m.push_back({"match.multiway_per_req",
               per_req(g0.kernel_multiway_intersections,
                       g1.kernel_multiway_intersections),
               "count"});
  const double multiway = delta(g0.kernel_multiway_intersections,
                                g1.kernel_multiway_intersections);
  m.push_back({"match.simd_frac",
               Ratio(delta(g0.kernel_simd_galloped, g1.kernel_simd_galloped),
                     multiway),
               "ratio"});
  m.push_back({"match.shortcut_frac",
               Ratio(delta(g0.kernel_intersection_shortcuts,
                           g1.kernel_intersection_shortcuts),
                     multiway),
               "ratio"});
  m.push_back({"match.split_per_req",
               per_req(g0.kernel_split_matches, g1.kernel_split_matches),
               "count"});
  m.push_back({"match.stolen_per_req",
               per_req(g0.kernel_steal_stolen, g1.kernel_steal_stolen),
               "count"});
  m.push_back({"match.self_ms", self_ms(Layer::kMatch), "ms"});
  m.push_back({"ftv.filter_ms", t.MeanOpNs(Op::kFilter) / 1e6, "ms"});
  m.push_back({"ftv.candidates_per_req",
               Ratio(static_cast<double>(t.filter_survivors), treq), "count"});
  m.push_back({"ftv.prune_frac",
               Ratio(delta(g0.filter_candidates_pruned,
                           g1.filter_candidates_pruned),
                     delta(g0.filter_candidates_in, g1.filter_candidates_in)),
               "ratio"});
  m.push_back({"ftv.precision",
               Ratio(delta(c0.matched_pairs, c1.matched_pairs),
                     delta(c0.pairs, c1.pairs)),
               "ratio"});
  m.push_back({"ftv.verify_ms", ftv ? t.MeanOpNs(Op::kRace) / 1e6 : 0.0,
               "ms"});
  m.push_back({"ftv.self_ms", self_ms(Layer::kFtv), "ms"});
  w->MeasureSetupLayers(setup_s, &m);
  m.push_back({"trace.latency_p50_ms", traced_p50, "ms"});
  m.push_back({"trace.untraced_p50_ms", p50, "ms"});
  m.push_back({"trace.overhead_ms", traced_p50 - p50, "ms"});
  m.push_back({"trace.unattributed_ms", self_ms(Layer::kRequest), "ms"});
  m.push_back({"trace.accounting_gap_frac", gap, "ratio"});

  const bool closes = std::abs(gap) <= kAccountingTolerance;
  log << "traced: " << t.requests << " requests; mean latency "
      << mean_latency << " ms, layer self times sum to " << attributed_ms
      << " ms (gap " << gap << ", tolerance " << kAccountingTolerance
      << "): " << (closes ? "closes" : "DOES NOT CLOSE") << "\n"
      << "tracing overhead: traced p50 " << traced_p50 << " ms vs untraced "
      << p50 << " ms\n";
  report.correct = report.failed == 0 && closes;
  return report;
}

}  // namespace psibench
