// Conformance suite for the compile-time cluster-policy engine
// (docs/policy_engine.md): every built-in policy's Distance hook must equal
// the scalar EvalDistance reference bit for bit over a randomized grid of
// sizes, costs and ε — including the eq. (11) ε-denominator guard and the
// overlapping-argument shape dist(Ŝ, Ŝ∖{R}) of the modified agglomerative
// algorithm.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <type_traits>

#include "kanon/algo/distance.h"
#include "kanon/algo/policy.h"

namespace kanon {
namespace {

// ε values stressing eq. (11): the paper's 0.1, zero (the guarded
// denominator), a denormal-adjacent sliver, and a value dominating d_a+d_b.
const double kEpsilons[] = {0.1, 0.0, 1e-12, 2.5};

// Distance(args) must be EvalDistance(args) *bitwise* — EXPECT_EQ on
// doubles is exact equality, and the policies never produce NaN (the eq.
// (11) guard maps the 0/0 corner to 0 and x/0 to +inf).
template <typename Policy>
void ExpectDistanceConformance(DistanceFunction f, const Policy& policy,
                               const DistanceParams& params) {
  std::mt19937 rng(20080407u);
  std::uniform_int_distribution<size_t> size_dist(1, 64);
  std::uniform_real_distribution<double> cost_dist(0.0, 4.0);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t size_a = size_dist(rng);
    const size_t size_b = size_dist(rng);
    const size_t size_union = size_a + size_b;
    const double d_a = cost_dist(rng);
    const double d_b = cost_dist(rng);
    const double d_union = std::max(d_a, d_b) + cost_dist(rng);

    // The disjoint merge shape of the init/repair scans.
    EXPECT_EQ(policy.Distance(size_a, size_b, size_union, d_a, d_b, d_union),
              EvalDistance(f, params, size_a, size_b, size_union, d_a, d_b,
                           d_union))
        << Policy::kName << " trial " << trial;

    // The overlapping-argument shape of Algorithm 2's ejection scan,
    // dist(Ŝ, Ŝ∖{R}): |A∪B| = |A| and d(A∪B) = d(A), exactly as the
    // ShrinkToK call site passes them.
    if (size_a >= 2) {
      EXPECT_EQ(policy.Distance(size_a, size_a - 1, size_a, d_a, d_b, d_a),
                EvalDistance(f, params, size_a, size_a - 1, size_a, d_a, d_b,
                             d_a))
          << Policy::kName << " overlap trial " << trial;
    }

    // Zero-cost parts (identical records): with ε = 0 this is the eq. (11)
    // guarded denominator, both corners.
    EXPECT_EQ(policy.Distance(size_a, size_b, size_union, 0.0, 0.0, d_union),
              EvalDistance(f, params, size_a, size_b, size_union, 0.0, 0.0,
                           d_union))
        << Policy::kName << " zero-parts trial " << trial;
    EXPECT_EQ(policy.Distance(size_a, size_b, size_union, 0.0, 0.0, 0.0),
              EvalDistance(f, params, size_a, size_b, size_union, 0.0, 0.0,
                           0.0))
        << Policy::kName << " zero-everything trial " << trial;
  }
}

TEST(PolicyConformanceTest, EveryPolicyMatchesEvalDistanceBitwise) {
  for (DistanceFunction f : kAllDistanceFunctions) {
    for (double epsilon : kEpsilons) {
      DistanceParams params;
      params.epsilon = epsilon;
      DispatchDistancePolicy(f, params, [&](const auto& policy) {
        ExpectDistanceConformance(f, policy, params);
        return 0;
      });
    }
  }
}

TEST(PolicyConformanceTest, DispatchMapsEachEnumToItsPolicy) {
  // kName doubles as the pipeline-facing diagnostic label, so the mapping
  // of DistanceFunctionName must survive the enum-to-policy translation.
  for (DistanceFunction f : kAllDistanceFunctions) {
    const std::string name =
        DispatchDistancePolicy(f, DistanceParams{}, [](const auto& policy) {
          return std::string(
              std::remove_reference_t<decltype(policy)>::kName);
        });
    EXPECT_EQ(name, DistanceFunctionName(f));
  }
}

TEST(PolicyConformanceTest, OnlyNergizCliftonIsAsymmetric) {
  for (DistanceFunction f : kAllDistanceFunctions) {
    const bool asymmetric =
        DispatchDistancePolicy(f, DistanceParams{}, [](const auto& policy) {
          return std::remove_reference_t<decltype(policy)>::kAsymmetric;
        });
    EXPECT_EQ(asymmetric, f == DistanceFunction::kNergizClifton);
  }
}

TEST(PolicyConformanceTest, RatioPolicyCarriesDispatchedEpsilon) {
  DistanceParams params;
  params.epsilon = 0.25;
  DispatchDistancePolicy(DistanceFunction::kRatio, params,
                         [&](const auto& policy) {
                           EXPECT_EQ(policy.Distance(1, 1, 2, 0.5, 0.25, 1.0),
                                     1.0 / (0.5 + 0.25 + 0.25));
                           return 0;
                         });
}

TEST(PolicyConformanceTest, RatioGuardsTheZeroDenominator) {
  DistanceParams zero_eps;
  zero_eps.epsilon = 0.0;
  const RatioPolicy policy{{}, zero_eps};
  // 0/0 corner: a zero-cost union over zero-cost parts is a perfect merge.
  EXPECT_EQ(policy.Distance(1, 1, 2, 0.0, 0.0, 0.0), 0.0);
  EXPECT_EQ(EvalDistance(DistanceFunction::kRatio, zero_eps, 1, 1, 2, 0.0,
                         0.0, 0.0),
            0.0);
  // x/0 corner: a costly union over zero-cost parts is maximally
  // unattractive, not NaN.
  EXPECT_EQ(policy.Distance(1, 1, 2, 0.0, 0.0, 0.75),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(EvalDistance(DistanceFunction::kRatio, zero_eps, 1, 1, 2, 0.0,
                         0.0, 0.75),
            std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace kanon
