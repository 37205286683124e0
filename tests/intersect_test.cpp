// Fuzz + edge-case tests of the sorted-set intersection kernel
// (match/intersect.hpp):
//
//  * Randomized differential: strictly ascending duplicate-free uint64
//    sets of sizes 0..10k, IntersectSorted and IntersectSortedIds in both
//    argument orders vs. the std::set_intersection oracle.
//  * Deterministic edge cases: empty, singleton, fully disjoint,
//    identical, strict subset, and heavily skewed size ratios, plus keys
//    with the top bit set (1 << 63 and UINT64_MAX), which must order as
//    unsigned.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "match/intersect.hpp"

namespace psi {
namespace {

std::vector<uint64_t> Oracle(const std::vector<uint64_t>& a,
                             const std::vector<uint64_t>& b) {
  std::vector<uint64_t> want;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(want));
  return want;
}

// Both kernels must reproduce the oracle exactly, in both argument orders
// (they swap internally to iterate the smaller side).
void ExpectMatchesOracle(const std::vector<uint64_t>& a,
                         const std::vector<uint64_t>& b) {
  const std::vector<uint64_t> want = Oracle(a, b);
  for (int swap = 0; swap < 2; ++swap) {
    const auto& x = swap ? b : a;
    const auto& y = swap ? a : b;
    std::vector<uint64_t> out(std::min(a.size(), b.size()) + 1, ~0ull);
    const size_t m =
        IntersectSorted(x.data(), x.size(), y.data(), y.size(), out.data());
    ASSERT_EQ(m, want.size()) << "swap=" << swap;
    for (size_t i = 0; i < m; ++i) {
      ASSERT_EQ(out[i], want[i]) << "swap=" << swap << " i=" << i;
    }
    // The fused id-emitting variant must agree element-wise: each output
    // is the matching key's low 32 bits, in the same order.
    std::vector<VertexId> ids(out.size(), ~VertexId{0});
    const size_t k = IntersectSortedIds(x.data(), x.size(), y.data(),
                                        y.size(), ids.data());
    ASSERT_EQ(k, want.size()) << "swap=" << swap;
    for (size_t i = 0; i < k; ++i) {
      ASSERT_EQ(ids[i], static_cast<VertexId>(want[i] & 0xffffffffu))
          << "swap=" << swap << " i=" << i;
    }
  }
}

// Strictly ascending duplicate-free draw of ~`size` keys from
// [0, universe): overlap between two draws is controlled by how tight the
// universe is relative to the sizes.
std::vector<uint64_t> RandomSortedSet(std::mt19937_64& rng, size_t size,
                                      uint64_t universe) {
  std::vector<uint64_t> v;
  v.reserve(size);
  for (size_t i = 0; i < size; ++i) v.push_back(rng() % universe);
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

// ---- Edge cases ----

TEST(IntersectTest, EmptyAndSingleton) {
  ExpectMatchesOracle({}, {});
  ExpectMatchesOracle({}, {1, 2, 3});
  ExpectMatchesOracle({5}, {});
  ExpectMatchesOracle({5}, {5});
  ExpectMatchesOracle({5}, {4});
  ExpectMatchesOracle({5}, {1, 2, 3, 4, 5, 6});
  ExpectMatchesOracle({7}, {1, 2, 3, 4, 5, 6});
}

TEST(IntersectTest, DisjointIdenticalAndSubset) {
  std::vector<uint64_t> evens, odds, all;
  for (uint64_t i = 0; i < 2000; ++i) {
    evens.push_back(2 * i);
    odds.push_back(2 * i + 1);
    all.push_back(i);
  }
  ExpectMatchesOracle(evens, odds);   // disjoint interleaved
  ExpectMatchesOracle(evens, evens);  // identical
  ExpectMatchesOracle(evens, all);    // half-subset
  std::vector<uint64_t> low(all.begin(), all.begin() + 500);
  ExpectMatchesOracle(low, all);      // strict prefix subset
}

// Keys at and around 1 << 63, and UINT64_MAX, must order as unsigned.
TEST(IntersectTest, BiasBoundaryKeys) {
  const uint64_t hi = 1ull << 63;
  const std::vector<uint64_t> a = {0,      1,       hi - 2, hi - 1,
                                   hi,     hi + 1,  ~1ull,  ~0ull};
  const std::vector<uint64_t> b = {1,      2,       hi - 1, hi,
                                   hi + 2, ~2ull,   ~0ull};
  ExpectMatchesOracle(a, b);
  ExpectMatchesOracle(a, a);
}

TEST(IntersectTest, SkewedSizeRatios) {
  std::mt19937_64 rng(20260808);
  for (size_t big : {size_t{1000}, size_t{10000}}) {
    for (size_t small : {size_t{1}, size_t{3}, size_t{17}}) {
      const auto b = RandomSortedSet(rng, big, big * 2);
      auto a = RandomSortedSet(rng, small, big * 2);
      // Force some hits so the gallop's emit path runs.
      for (size_t i = 0; i < a.size() && i < b.size(); i += 2) a[i] = b[i * 7 % b.size()];
      std::sort(a.begin(), a.end());
      a.erase(std::unique(a.begin(), a.end()), a.end());
      ExpectMatchesOracle(a, b);
    }
  }
}

// ---- Fuzz vs. oracle ----

TEST(IntersectTest, FuzzAgainstSetIntersection) {
  std::mt19937_64 rng(978);
  for (int round = 0; round < 200; ++round) {
    const size_t na = rng() % 10001;
    const size_t nb = rng() % 10001;
    // Cycle overlap density: tight universes force long common runs,
    // loose ones leave the sets nearly disjoint.
    const uint64_t universe =
        std::max<uint64_t>(1, (na + nb + 1) << (round % 4));
    const auto a = RandomSortedSet(rng, na, universe);
    const auto b = RandomSortedSet(rng, nb, universe);
    ExpectMatchesOracle(a, b);
  }
  // Full-width random keys, about half with the top bit set.
  for (int round = 0; round < 20; ++round) {
    std::vector<uint64_t> a, b;
    for (int i = 0; i < 300; ++i) {
      const uint64_t v = rng();
      a.push_back(v);
      if (i % 3 == 0) b.push_back(v);  // guaranteed overlap
      b.push_back(rng());
    }
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    ExpectMatchesOracle(a, b);
  }
}

}  // namespace
}  // namespace psi
