// Ψ-framework portfolios: named sets of (algorithm, rewriting) contenders.
//
// The paper's NFV configurations are cross-products or unions such as
// Ψ(Or/ILF/IND/DND) over one algorithm, or Ψ([GQL/SPA]-[Or/DND]) racing
// both algorithms on both rewritings. A Portfolio captures one such
// configuration against prebuilt (shared, immutable) matcher indexes;
// RunPortfolio rewrites the query once per entry and races the contenders.

#ifndef PSI_PSI_PORTFOLIO_HPP_
#define PSI_PSI_PORTFOLIO_HPP_

#include <span>
#include <string>
#include <vector>

#include "core/label_stats.hpp"
#include "match/matcher.hpp"
#include "psi/racer.hpp"
#include "rewrite/rewrite.hpp"

namespace psi {

class RewriteCache;  // rewrite/rewrite_cache.hpp

/// One contender: a prepared matcher plus the rewriting it runs under.
struct PortfolioEntry {
  const Matcher* matcher = nullptr;
  Rewriting rewriting = Rewriting::kOriginal;
  /// Only used when rewriting == kRandom.
  uint64_t random_seed = 0;
};

struct Portfolio {
  std::string name;
  std::vector<PortfolioEntry> entries;
};

/// "Ψ(R1/R2/...)" over a single algorithm.
Portfolio MakeRewritingPortfolio(const Matcher& matcher,
                                 std::span<const Rewriting> rewritings);

/// "Ψ([A1/A2]-[R1/R2])": every algorithm races every listed rewriting.
Portfolio MakeMultiAlgorithmPortfolio(
    std::span<const Matcher* const> matchers,
    std::span<const Rewriting> rewritings);

/// Human-readable contender label, e.g. "GQL-ILF" (rewriting alone for
/// matcher-less entries).
std::string EntryName(const PortfolioEntry& entry);

/// Races all portfolio entries on `query` — the classic full race,
/// executed as the trivial one-stage plan (plan/plan.hpp). `stats`
/// supplies the stored graph's label frequencies for the ILF family.
/// Rewriting costs a few microseconds per rewriting and is included in
/// each variant's budget, faithfully to the paper which found it
/// negligible; pass a `rewrite_cache` to memoize it across calls
/// (rewrite_cache.hpp).
RaceResult RunPortfolio(const Portfolio& portfolio, const Graph& query,
                        const LabelStats& stats, const RaceOptions& options,
                        RewriteCache* rewrite_cache = nullptr);

}  // namespace psi

#endif  // PSI_PSI_PORTFOLIO_HPP_
