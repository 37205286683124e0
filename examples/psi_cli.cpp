// psi_cli — command-line subgraph querying over dataset files.
//
// NFV (matching against one large stored graph, first graph of the file):
//   psi_cli nfv data.tve queries.tve [--algos=gql,spa,qsi,vf2]
//           [--rewritings=orig,ilf,ind,dnd,ilf+ind,ilf+dnd]
//           [--cap-ms=250] [--max-embeddings=1000] [--staged=1]
//           [--explain]
//
// FTV (decision against every graph of a dataset):
//   psi_cli ftv dataset.gfu queries.gfu [--threads=4]
//           [--rewritings=ilf,ind,dnd] [--cap-ms=250] [--explain]
//
// Both modes run the requested (algorithm x rewriting) portfolio per
// query through the query-planning pipeline (src/plan/) — the
// Ψ-framework — and report per-query winners and timings. `--staged=1`
// enables probe-then-escalate plans once the engine's selector is warm
// (or set PSI_PLAN_STAGED=1); `--explain` prints each query's chosen
// plan (variant order, stage budgets), per-race matching-kernel counters
// (candidates tried, NLF rejects, bitset edge checks, label-slice sizes
// — match/candidate_index.hpp), the rewrite-cache hit counters, and the
// aggregate kernel[...] gauges. Files: .tve / .gfu as documented in
// io/graph_io.hpp.

#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/env.hpp"
#include "core/label_stats.hpp"
#include "match/candidate_index.hpp"
#include "metrics/metrics.hpp"
#include "ggsx/ggsx.hpp"
#include "grapes/grapes.hpp"
#include "graphql/graphql.hpp"
#include "io/graph_io.hpp"
#include "plan/plan.hpp"
#include "plan/planner.hpp"
#include "psi/engine.hpp"
#include "quicksi/quicksi.hpp"
#include "rewrite/rewrite_cache.hpp"
#include "workload/runner.hpp"
#include "spath/spath.hpp"
#include "vf2/vf2.hpp"

namespace {

using namespace psi;

// --key=value option lookup.
std::string Opt(int argc, char** argv, const std::string& key,
                const std::string& def) {
  const std::string prefix = "--" + key + "=";
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]).rfind(prefix, 0) == 0) {
      return std::string(argv[i]).substr(prefix.size());
    }
  }
  return def;
}

// Bare --key flag presence.
bool Flag(int argc, char** argv, const std::string& key) {
  const std::string flag = "--" + key;
  for (int i = 0; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

std::vector<std::string> Split(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

Result<GraphDataset> Load(const std::string& path, io::LabelDict* dict) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".gfu") {
    return io::ReadGfuFile(path, dict);
  }
  return io::ReadTveFile(path, dict);
}

// Per-race kernel-counter line for --explain: the candidate-index effort
// of every contender that actually ran (match/candidate_index.hpp).
std::string FormatRaceKernelCounters(const RaceResult& r) {
  MatchStats total;
  for (const auto& w : r.workers) total.Add(w.result.stats);
  std::string out = "  kernel: tried=" + std::to_string(total.candidates_tried);
  out += " nlf_rejects=" + std::to_string(total.nlf_rejects);
  out += " bitset_checks=" + std::to_string(total.bitset_edge_checks);
  out += " slice_cands=" + std::to_string(total.slice_candidates);
  return out;
}

Result<std::vector<Rewriting>> ParseRewritings(const std::string& spec) {
  std::vector<Rewriting> out;
  for (const std::string& name : Split(spec)) {
    if (name == "orig") {
      out.push_back(Rewriting::kOriginal);
    } else if (name == "ilf") {
      out.push_back(Rewriting::kIlf);
    } else if (name == "ind") {
      out.push_back(Rewriting::kInd);
    } else if (name == "dnd") {
      out.push_back(Rewriting::kDnd);
    } else if (name == "ilf+ind") {
      out.push_back(Rewriting::kIlfInd);
    } else if (name == "ilf+dnd") {
      out.push_back(Rewriting::kIlfDnd);
    } else {
      return Status::InvalidArgument("unknown rewriting '" + name + "'");
    }
  }
  if (out.empty()) return Status::InvalidArgument("no rewritings given");
  return out;
}

int RunNfv(int argc, char** argv) {
  io::LabelDict dict;
  auto data = Load(argv[2], &dict);
  if (!data.ok() || data->empty()) {
    std::cerr << "cannot load stored graph: " << data.status().ToString()
              << "\n";
    return 1;
  }
  auto queries = Load(argv[3], &dict);
  if (!queries.ok()) {
    std::cerr << "cannot load queries: " << queries.status().ToString()
              << "\n";
    return 1;
  }
  const Graph& g = data->graph(0);
  std::cerr << "stored graph: " << g.num_vertices() << " vertices, "
            << g.num_edges() << " edges; " << queries->size()
            << " queries\n";

  PsiEngineOptions options;
  options.budget = std::chrono::milliseconds(
      std::stoll(Opt(argc, argv, "cap-ms",
                     std::to_string(CapMillis()))));
  options.max_embeddings = static_cast<uint64_t>(
      std::stoll(Opt(argc, argv, "max-embeddings", "1000")));
  auto rewritings =
      ParseRewritings(Opt(argc, argv, "rewritings", "orig,dnd"));
  if (!rewritings.ok()) {
    std::cerr << rewritings.status().ToString() << "\n";
    return 1;
  }
  options.rewritings = *rewritings;

  const std::string staged = Opt(argc, argv, "staged", "");
  if (!staged.empty()) options.staged = staged != "0";
  const bool explain = Flag(argc, argv, "explain");

  PsiEngine engine(options);
  for (const std::string& a :
       Split(Opt(argc, argv, "algos", "gql,spa"))) {
    if (a == "gql") {
      engine.AddMatcher(std::make_unique<GraphQlMatcher>());
    } else if (a == "spa") {
      engine.AddMatcher(std::make_unique<SPathMatcher>());
    } else if (a == "qsi") {
      engine.AddMatcher(std::make_unique<QuickSiMatcher>());
    } else if (a == "vf2") {
      engine.AddMatcher(std::make_unique<Vf2Matcher>());
    } else {
      std::cerr << "unknown algorithm '" << a << "'\n";
      return 1;
    }
  }
  if (auto s = engine.Prepare(g); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  std::cerr << "portfolio: " << engine.portfolio().entries.size()
            << " contenders"
            << (options.staged ? ", staged plans once warm" : "") << "\n";

  std::cout << "query\tembeddings\twinner\tms\n";
  for (size_t i = 0; i < queries->size(); ++i) {
    if (explain) {
      std::cerr << "query " << i << " "
                << FormatPlan(engine.ExplainPlan(queries->graph(i)),
                              engine.portfolio());
    }
    auto r = engine.Run(queries->graph(i), options.max_embeddings);
    if (explain) std::cerr << FormatRaceKernelCounters(r) << "\n";
    if (r.completed()) {
      std::cout << i << "\t" << r.result.embedding_count << "\t"
                << r.workers[r.winner].name << "\t" << r.wall_ms() << "\n";
    } else {
      std::cout << i << "\tKILLED\t-\t-\n";
    }
  }
  if (explain) {
    const RewriteCache::Stats cs = engine.rewrite_cache_stats();
    std::cerr << "rewrite cache: " << cs.hits << " hits / " << cs.lookups()
              << " lookups, " << engine.observed_races()
              << " race outcomes learned\n";
    const std::string kernel = FormatKernelGauges(engine.pool_gauges());
    if (!kernel.empty()) std::cerr << kernel << "\n";
  }
  return 0;
}

int RunFtv(int argc, char** argv) {
  io::LabelDict dict;
  auto dataset = Load(argv[2], &dict);
  if (!dataset.ok()) {
    std::cerr << "cannot load dataset: " << dataset.status().ToString()
              << "\n";
    return 1;
  }
  auto queries = Load(argv[3], &dict);
  if (!queries.ok()) {
    std::cerr << "cannot load queries: " << queries.status().ToString()
              << "\n";
    return 1;
  }
  GrapesOptions gopts;
  gopts.num_threads = static_cast<uint32_t>(
      std::stoul(Opt(argc, argv, "threads", "4")));
  GrapesIndex index(gopts);
  if (auto s = index.Build(*dataset); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  auto rewritings =
      ParseRewritings(Opt(argc, argv, "rewritings", "ilf,ind,dnd"));
  if (!rewritings.ok()) {
    std::cerr << rewritings.status().ToString() << "\n";
    return 1;
  }
  const double cap_ms = std::stod(
      Opt(argc, argv, "cap-ms", std::to_string(CapMillis())));
  const bool explain = Flag(argc, argv, "explain");
  const LabelStats stats = LabelStats::FromGraphs(dataset->graphs());

  // Verification plans over the rewriting-only universe; the rewrite
  // cache memoizes each query's instances across its candidate graphs
  // (the pre-plan CLI rewrote per candidate).
  const Portfolio universe = MakeFtvVerificationPortfolio(*rewritings);
  QueryPlannerOptions po = QueryPlannerOptions::FromEnv();  // PSI_PLAN_*
  po.budget =
      std::chrono::nanoseconds(static_cast<int64_t>(cap_ms * 1e6));
  QueryPlanner planner;
  planner.Configure(&universe, &stats, po);
  RewriteCache cache;

  std::cout << "query\tcandidates\tanswers\n";
  for (size_t qi = 0; qi < queries->size(); ++qi) {
    const Graph& q = queries->graph(qi);
    const QueryPlan plan = planner.Plan(q);
    if (explain) {
      std::cerr << "query " << qi << " " << FormatPlan(plan, universe);
    }
    size_t answers = 0;
    auto candidates = index.Filter(q);
    for (const auto& cand : candidates) {
      const auto instances = cache.GetInstances(q, *rewritings, stats);
      std::vector<RaceVariant> variants;
      for (size_t vi = 0; vi < instances.size(); ++vi) {
        variants.push_back(RaceVariant{
            std::string(ToString((*rewritings)[vi])),
            [&index, inst = instances[vi], &cand](const MatchOptions& mo) {
              return index.VerifyCandidate(inst->graph, cand, mo);
            }});
      }
      RaceOptions ro;
      ro.budget = po.budget;
      ro.max_embeddings = 1;
      const PlanResult outcome = ExecutePlan(plan, variants, ro);
      if (explain) {
        std::cerr << "  g" << cand.graph_id
                  << FormatRaceKernelCounters(outcome.race) << "\n";
      }
      if (outcome.race.completed() && outcome.race.result.found()) {
        ++answers;
      }
      if (outcome.race.completed()) {
        planner.Observe(plan.features,
                        static_cast<size_t>(outcome.race.winner));
      }
    }
    std::cout << qi << "\t" << candidates.size() << "\t" << answers << "\n";
  }
  if (explain) {
    const RewriteCache::Stats cs = cache.stats();
    std::cerr << "rewrite cache: " << cs.hits << " hits / " << cs.lookups()
              << " lookups (" << cs.misses << " rewrites computed)\n";
    PoolGauges g;
    index.kernel_stats().AddTo(&g);
    const std::string kernel = FormatKernelGauges(g);
    if (!kernel.empty()) std::cerr << kernel << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::cerr << "usage: psi_cli nfv <data.tve|gfu> <queries.tve|gfu> "
                 "[--algos=...] [--rewritings=...] [--cap-ms=N] "
                 "[--staged=1] [--explain]\n"
                 "       psi_cli ftv <dataset.gfu|tve> <queries.gfu|tve> "
                 "[--threads=N] [--rewritings=...] [--cap-ms=N] "
                 "[--explain]\n";
    return 2;
  }
  if (std::strcmp(argv[1], "nfv") == 0) return RunNfv(argc, argv);
  if (std::strcmp(argv[1], "ftv") == 0) return RunFtv(argc, argv);
  std::cerr << "unknown mode '" << argv[1] << "'\n";
  return 2;
}
