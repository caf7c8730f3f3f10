#include "kanon/algo/agglomerative.h"

#include "kanon/algo/agglomerative_engine.h"
#include "kanon/algo/policy.h"
#include "kanon/common/check.h"

namespace kanon {

std::vector<GeneralizedRecord> LeaveOneOutClosures(
    const Dataset& dataset, const GeneralizationScheme& scheme,
    const std::vector<uint32_t>& rows) {
  const size_t len = rows.size();
  const size_t r = scheme.num_attributes();
  KANON_CHECK(len >= 2, "leave-one-out needs at least two rows");
  // prefix[q] = closure of rows[0..q), suffix[q] = closure of rows[q..len).
  std::vector<GeneralizedRecord> prefix(len);
  std::vector<GeneralizedRecord> suffix(len + 1);
  prefix[1] = scheme.Identity(dataset.row_view(rows[0]));
  for (size_t q = 2; q < len; ++q) {
    prefix[q] = prefix[q - 1];
    for (size_t j = 0; j < r; ++j) {
      prefix[q][j] = scheme.hierarchy(j).JoinValue(
          prefix[q][j], dataset.at(rows[q - 1], j));
    }
  }
  suffix[len - 1] = scheme.Identity(dataset.row_view(rows[len - 1]));
  for (size_t q = len - 1; q-- > 1;) {
    suffix[q] = suffix[q + 1];
    for (size_t j = 0; j < r; ++j) {
      suffix[q][j] =
          scheme.hierarchy(j).JoinValue(suffix[q][j], dataset.at(rows[q], j));
    }
  }
  std::vector<GeneralizedRecord> out(len);
  out[0] = suffix[1];
  out[len - 1] = prefix[len - 1];
  for (size_t p = 1; p + 1 < len; ++p) {
    out[p] = scheme.JoinRecords(prefix[p], suffix[p + 1]);
  }
  return out;
}

// The runtime boundary of the policy engine: the DistanceFunction enum is
// translated to its compile-time policy here, exactly once per run, and the
// templated engine (agglomerative_engine.h) inlines every per-pair decision.
Result<Clustering> AgglomerativeCluster(const Dataset& dataset,
                                        const PrecomputedLoss& loss, size_t k,
                                        const AgglomerativeOptions& options) {
  return DispatchDistancePolicy(
      options.distance, options.params, [&](const auto& policy) {
        return AgglomerativeClusterWithPolicy(dataset, loss, k, options,
                                              policy);
      });
}

Result<GeneralizedTable> AgglomerativeKAnonymize(
    const Dataset& dataset, const PrecomputedLoss& loss, size_t k,
    const AgglomerativeOptions& options) {
  KANON_ASSIGN_OR_RETURN(Clustering clustering,
                         AgglomerativeCluster(dataset, loss, k, options));
  return TableFromClustering(loss.scheme_ptr(), dataset, clustering);
}

// One engine instantiation per built-in distance (docs/policy_engine.md).
// New policies do not belong here: they instantiate the engine implicitly
// from agglomerative_engine.h in their own translation unit.
template Result<Clustering> AgglomerativeClusterWithPolicy(
    const Dataset&, const PrecomputedLoss&, size_t,
    const AgglomerativeOptions&, const WeightedPolicy&);
template Result<Clustering> AgglomerativeClusterWithPolicy(
    const Dataset&, const PrecomputedLoss&, size_t,
    const AgglomerativeOptions&, const PlainPolicy&);
template Result<Clustering> AgglomerativeClusterWithPolicy(
    const Dataset&, const PrecomputedLoss&, size_t,
    const AgglomerativeOptions&, const LogWeightedPolicy&);
template Result<Clustering> AgglomerativeClusterWithPolicy(
    const Dataset&, const PrecomputedLoss&, size_t,
    const AgglomerativeOptions&, const RatioPolicy&);
template Result<Clustering> AgglomerativeClusterWithPolicy(
    const Dataset&, const PrecomputedLoss&, size_t,
    const AgglomerativeOptions&, const NergizCliftonPolicy&);

}  // namespace kanon
