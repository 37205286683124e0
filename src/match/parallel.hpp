// Kept only because psibench/src/harness.cpp still names these; they go
// when that harness stops naming them. Intra-query root splitting was
// removed: MatchParallel is a plain Match() call and every field of
// ParallelMatchOptions is ignored.

#ifndef PSI_MATCH_PARALLEL_HPP_
#define PSI_MATCH_PARALLEL_HPP_

#include <cstddef>

#include "match/matcher.hpp"

namespace psi {

class Executor;  // exec/executor.hpp

/// Ignored by MatchParallel; kept only for psibench.
struct ParallelMatchOptions {
  size_t split = 0;
  Executor* executor = nullptr;

  static ParallelMatchOptions FromEnv() { return {}; }
};

/// `matcher.Match(query, opts)`; kept only for psibench.
inline MatchResult MatchParallel(const Matcher& matcher, const Graph& query,
                                 const MatchOptions& opts,
                                 const ParallelMatchOptions& /*po*/) {
  return matcher.Match(query, opts);
}

}  // namespace psi

#endif  // PSI_MATCH_PARALLEL_HPP_
