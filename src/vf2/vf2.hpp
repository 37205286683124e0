// VF2 subgraph-isomorphism algorithm (Cordella, Foggia, Sansone, Vento,
// TPAMI 2004), non-induced and vertex-labelled, as used by Grapes and GGSX
// for their verification stage (paper §3.1.1).
//
// Ordering contract (load-bearing for the paper's findings): VF2 imposes no
// algorithmic query-vertex order — the next query vertex is the *smallest-ID*
// unmatched vertex adjacent to the matched region, and data-graph candidates
// are tried in ascending vertex id (the candidate index's (degree, id)
// slice order when the kernel is active — deterministic either way). Query
// rewritings therefore directly steer the search.

#ifndef PSI_VF2_VF2_HPP_
#define PSI_VF2_VF2_HPP_

#include "match/matcher.hpp"

namespace psi {

/// Runs VF2 directly on a (query, data) pair — the FTV verification entry
/// point, where each candidate graph is matched once and no per-graph state
/// is worth keeping.
MatchResult Vf2Match(const Graph& query, const Graph& data,
                     const MatchOptions& opts);

/// VF2 over a prebuilt candidate index (match/candidate_index.hpp) for
/// `data`: anchored enumeration walks the anchor image's label slice, an
/// O(1) NLF prefilter runs before the feasibility rules, and backward
/// edges resolve through hub bitsets. `index == nullptr` is the plain
/// search; answers (and the embedding stream) are identical either way —
/// the Grapes/GGSX verification passes its per-stored-graph indexes here.
MatchResult Vf2Match(const Graph& query, const Graph& data,
                     const MatchOptions& opts, const CandidateIndex* index);

/// Matcher adapter so VF2 can participate in NFV portfolios. Prepare()
/// records the stored graph and resolves the shared candidate index (VF2
/// keeps no algorithm-specific index of its own).
class Vf2Matcher : public Matcher {
 public:
  std::string_view name() const override { return "VF2"; }
  Status Prepare(const Graph& data) override;
  MatchResult Match(const Graph& query,
                    const MatchOptions& opts) const override;
  const Graph* data() const override { return data_; }

 private:
  const Graph* data_ = nullptr;
};

}  // namespace psi

#endif  // PSI_VF2_VF2_HPP_
