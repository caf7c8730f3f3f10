#include "kanon/algo/distance.h"

#include <cmath>
#include <limits>

#include "kanon/common/check.h"

namespace kanon {

std::string DistanceFunctionName(DistanceFunction f) {
  return NameOf(kDistanceNames, f).display;
}

const char* DistanceFlagName(DistanceFunction f) {
  return NameOf(kDistanceNames, f).flag;
}

Result<DistanceFunction> ParseDistanceName(const std::string& flag) {
  return ParseFlagName(kDistanceNames, flag, "distance");
}

double EvalDistance(DistanceFunction f, const DistanceParams& params,
                    size_t size_a, size_t size_b, size_t size_union,
                    double d_a, double d_b, double d_union) {
  KANON_DCHECK(size_a > 0 && size_b > 0 && size_union > 1);
  switch (f) {
    case DistanceFunction::kWeighted:
      return static_cast<double>(size_union) * d_union -
             static_cast<double>(size_a) * d_a -
             static_cast<double>(size_b) * d_b;
    case DistanceFunction::kPlain:
      return d_union - d_a - d_b;
    case DistanceFunction::kLogWeighted:
      return (d_union - d_a - d_b) /
             std::log2(static_cast<double>(size_union));
    case DistanceFunction::kRatio: {
      // Two zero-cost closures (e.g. identical singleton records) with
      // epsilon = 0 would divide by zero and poison the merge heap with
      // inf/NaN. A zero-cost union is a perfect merge (distance 0); a
      // costly union over zero-cost parts is maximally unattractive.
      const double denom = d_a + d_b + params.epsilon;
      if (denom <= 0.0) {
        return d_union <= 0.0 ? 0.0
                              : std::numeric_limits<double>::infinity();
      }
      return d_union / denom;
    }
    case DistanceFunction::kNergizClifton:
      return d_union - d_b;
  }
  KANON_CHECK(false, "unreachable distance function");
  return 0.0;
}

}  // namespace kanon
