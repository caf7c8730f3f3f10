#include "kanon/algo/diverse_anonymizer.h"

#include <algorithm>
#include <limits>

#include "kanon/algo/core/closure_store.h"
#include "kanon/common/check.h"
#include "kanon/telemetry/tracer.h"

namespace kanon {

namespace {

// Counts distinct class values among `rows` with a flat seen-bitmap over
// the (small) class domain; `seen` is caller-owned scratch, reused across
// calls to keep the repair loop allocation-free.
size_t DistinctClasses(const Dataset& dataset,
                       const std::vector<uint32_t>& rows,
                       std::vector<uint8_t>* seen) {
  seen->assign(dataset.class_domain().size(), 0);
  size_t distinct = 0;
  for (uint32_t row : rows) {
    uint8_t& flag = (*seen)[dataset.class_of(row)];
    distinct += 1 - flag;
    flag = 1;
  }
  return distinct;
}

}  // namespace

Result<Clustering> LDiverseCluster(const Dataset& dataset,
                                   const PrecomputedLoss& loss, size_t k,
                                   size_t l,
                                   const AgglomerativeOptions& options) {
  if (!dataset.has_class_column()) {
    return Status::InvalidArgument(
        "ℓ-diverse anonymization requires a class column");
  }
  if (l < 1) {
    return Status::InvalidArgument("l must be at least 1");
  }
  // Feasibility: the dataset itself must carry ℓ distinct classes.
  std::vector<uint8_t> seen;
  std::vector<uint32_t> all_rows(dataset.num_rows());
  for (uint32_t i = 0; i < dataset.num_rows(); ++i) all_rows[i] = i;
  const size_t total_classes = DistinctClasses(dataset, all_rows, &seen);
  if (total_classes < l) {
    return Status::FailedPrecondition(
        "dataset carries only " + std::to_string(total_classes) +
        " distinct class values; cannot be " + std::to_string(l) +
        "-diverse");
  }

  KANON_ASSIGN_OR_RETURN(Clustering clustering,
                         AgglomerativeCluster(dataset, loss, k, options));

  // Repair pass: merge non-diverse clusters into the cheapest partner.
  // Each merge removes one cluster, so this terminates; a single cluster
  // holding the whole dataset is ℓ-diverse by the feasibility check.
  // Candidate-union costs go through an interned ClosureStore: different
  // unions often close to the same generalized record, which is then
  // priced once across the whole repair.
  PhaseSpan repair_span(CurrentTracer(), "diverse/repair");
  ClosureStore store(loss);
  for (;;) {
    size_t violator = SIZE_MAX;
    for (size_t c = 0; c < clustering.clusters.size(); ++c) {
      if (DistinctClasses(dataset, clustering.clusters[c], &seen) < l) {
        violator = c;
        break;
      }
    }
    if (violator == SIZE_MAX) break;
    KANON_CHECK(clustering.clusters.size() > 1,
                "feasibility check guarantees a diverse final cluster");

    // Cheapest partner by the closure cost of the union.
    size_t best = SIZE_MAX;
    double best_cost = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < clustering.clusters.size(); ++c) {
      if (c == violator) continue;
      std::vector<uint32_t> merged = clustering.clusters[violator];
      merged.insert(merged.end(), clustering.clusters[c].begin(),
                    clustering.clusters[c].end());
      const double cost = store.cost(store.InternClosureOfRows(dataset, merged));
      if (cost < best_cost) {
        best_cost = cost;
        best = c;
      }
    }
    std::vector<uint32_t>& target = clustering.clusters[best];
    const std::vector<uint32_t>& source = clustering.clusters[violator];
    target.insert(target.end(), source.begin(), source.end());
    std::sort(target.begin(), target.end());
    clustering.clusters.erase(clustering.clusters.begin() +
                              static_cast<ptrdiff_t>(violator));
  }
  store.ExportCounters(options.counters);
  return clustering;
}

Result<GeneralizedTable> LDiverseKAnonymize(
    const Dataset& dataset, const PrecomputedLoss& loss, size_t k, size_t l,
    const AgglomerativeOptions& options) {
  KANON_ASSIGN_OR_RETURN(Clustering clustering,
                         LDiverseCluster(dataset, loss, k, l, options));
  return TableFromClustering(loss.scheme_ptr(), dataset, clustering);
}

}  // namespace kanon
