// GraphQL (He, Singh — SIGMOD 2008), as described in paper §3.1.2.
//
// Index phase: every data vertex gets a neighbourhood signature — the
// lexicographically sorted multiset of its neighbours' labels.
//
// Query phase, three pruning stages before the search:
//   1. candidate retrieval by label + signature (multiset) containment;
//   2. iterative pseudo-subgraph-isomorphism refinement up to `refine_level`
//      rounds (paper uses r = 4): a candidate pair (u,v) survives only if
//      the neighbours of u can be matched to *distinct* neighbours of v
//      whose candidate sets admit them (bipartite semi-perfect matching);
//   3. left-deep search-order optimisation driven by estimated intermediate
//      result sizes (candidate-list cardinalities), ties broken by vertex
//      id — the hook that makes GraphQL respond to query rewritings.
// The final sub-iso test joins candidate lists along that order.

#ifndef PSI_GRAPHQL_GRAPHQL_HPP_
#define PSI_GRAPHQL_GRAPHQL_HPP_

#include <cstdint>
#include <vector>

#include "match/matcher.hpp"

namespace psi {

struct GraphQlOptions {
  /// Rounds of pseudo-subgraph-isomorphism refinement (paper §3.2: r = 4).
  uint32_t refine_level = 4;
};

class GraphQlMatcher : public Matcher {
 public:
  GraphQlMatcher() = default;
  explicit GraphQlMatcher(const GraphQlOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "GQL"; }
  Status Prepare(const Graph& data) override;
  MatchResult Match(const Graph& query,
                    const MatchOptions& opts) const override;
  const Graph* data() const override { return data_; }

  /// Exposed for tests: the sorted neighbour-label signature of a data
  /// vertex.
  const std::vector<LabelId>& signature(VertexId v) const {
    return signatures_[v];
  }

 private:
  GraphQlOptions options_;
  const Graph* data_ = nullptr;
  std::vector<std::vector<LabelId>> signatures_;
};

}  // namespace psi

#endif  // PSI_GRAPHQL_GRAPHQL_HPP_
