#include "kanon/algo/global_anonymizer.h"

#include <algorithm>
#include <limits>

#include "kanon/algo/core/closure_store.h"
#include "kanon/common/check.h"
#include "kanon/common/failpoint.h"
#include "kanon/graph/consistency_graph.h"
#include "kanon/graph/matchable_edges.h"
#include "kanon/telemetry/tracer.h"

namespace kanon {

namespace {

// Telemetry at every exit: the upgrade-step count plus one interning pass
// over the final table (hits = duplicate rows — for a global anonymization
// the group structure itself). Pure accounting; the table is untouched.
void AccountRun(const PrecomputedLoss& loss, const GeneralizedTable& table,
                const GlobalAnonymizerStats& stats, EngineCounters* counters) {
  if (counters == nullptr) return;
  counters->upgrade_steps += stats.upgrade_steps;
  ClosureStore store(loss);
  store.InternTable(table);
  store.ExportCounters(counters);
}

// Global-(1,k) degradation: every record jumps to the common closure of the
// whole table — one identical group of n >= k rows. That group is globally
// (1,k)-anonymous outright: the identity matching is perfect, and inside an
// identical group any edge swaps into it.
void CollapseToCommonClosure(const GeneralizationScheme& scheme,
                             RunContext* ctx, GeneralizedTable* table) {
  const size_t n = table->num_rows();
  const size_t r = table->num_attributes();
  GeneralizedRecord common = table->record(0);
  for (size_t t = 1; t < n; ++t) {
    for (size_t j = 0; j < r; ++j) {
      common[j] = scheme.hierarchy(j).Join(common[j], table->at(t, j));
    }
  }
  size_t coarsened = 0;
  for (size_t t = 0; t < n; ++t) {
    if (table->record(t) != common) {
      table->SetRecord(t, common);
      ++coarsened;
    }
  }
  ctx->NoteDegraded("global/upgrade");
  ctx->AddRecordsSuppressed(coarsened);
}

}  // namespace

Result<GlobalAnonymizationResult> MakeGlobal1KAnonymous(
    const Dataset& dataset, const PrecomputedLoss& loss, size_t k,
    GeneralizedTable table, RunContext* ctx, EngineCounters* counters) {
  const size_t n = dataset.num_rows();
  const size_t r = dataset.num_attributes();
  if (k < 1) {
    return Status::InvalidArgument("k must be at least 1");
  }
  if (k > n) {
    return Status::InvalidArgument("k exceeds the number of records");
  }
  if (table.num_rows() != n) {
    return Status::InvalidArgument(
        "table must have one generalized record per dataset row");
  }
  const GeneralizationScheme& scheme = loss.scheme();
  if (r != scheme.num_attributes()) {
    return Status::InvalidArgument("dataset/loss arity mismatch");
  }
  // R̄_i must generalize R_i: Algorithm 6 relies on the identity edges for
  // its perfect-matching swaps.
  for (uint32_t i = 0; i < n; ++i) {
    if (!table.ConsistentPair(dataset, i, i)) {
      return Status::FailedPrecondition(
          "generalized record " + std::to_string(i) +
          " does not generalize its original record");
    }
  }

  // A context stopped during an earlier stage: skip the O(n²·r) consistency
  // graph entirely and collapse right away.
  if (ctx != nullptr && ctx->stopped()) {
    CollapseToCommonClosure(scheme, ctx, &table);
    AccountRun(loss, table, GlobalAnonymizerStats{}, counters);
    return GlobalAnonymizationResult{std::move(table), GlobalAnonymizerStats{}};
  }

  Result<MatchableEdgeSets> matchable = Status::Internal("unset");
  BipartiteGraph graph(0, 0);
  {
    PhaseSpan span(CurrentTracer(), "global/graph");
    span.set_items(n);
    graph = BuildConsistencyGraph(dataset, table);
    matchable = ComputeMatchableEdges(graph);
    KANON_RETURN_NOT_OK(matchable.status());
    KANON_CHECK(matchable->has_perfect_matching,
                "identity edges guarantee a perfect matching");
  }

  PhaseSpan upgrade_span(CurrentTracer(), "global/upgrade");
  GlobalAnonymizerStats stats;
  for (uint32_t i = 0; i < n; ++i) {
    size_t steps_for_record = 0;
    if (matchable->matches[i].size() < k) {
      ++stats.deficient_records;
    }
    while (matchable->matches[i].size() < k) {
      // One checkpoint per upgrade step — each recomputes the matchable
      // edges, so this is the expensive unit of Algorithm 6.
      if (ctx != nullptr && ctx->CheckPoint("global/upgrade")) {
        CollapseToCommonClosure(scheme, ctx, &table);
        AccountRun(loss, table, stats, counters);
        return GlobalAnonymizationResult{std::move(table), stats};
      }
      KANON_FAILPOINT("global.closure");
      // Non-match neighbors Q \ P of R_i.
      const std::vector<uint32_t>& neighbors = graph.Neighbors(i);
      const std::vector<uint32_t>& matches = matchable->matches[i];
      uint32_t best = std::numeric_limits<uint32_t>::max();
      double best_delta = std::numeric_limits<double>::infinity();
      for (uint32_t t : neighbors) {
        if (std::binary_search(matches.begin(), matches.end(), t)) continue;
        // d_h = c(R_{j_h} + R̄_i) − c(R̄_i), attribute-wise.
        double delta = 0.0;
        for (size_t j = 0; j < r; ++j) {
          const SetId current = table.at(i, j);
          const SetId joined =
              scheme.hierarchy(j).JoinValue(current, dataset.at(t, j));
          delta += loss.EntryCost(j, joined) - loss.EntryCost(j, current);
        }
        if (delta < best_delta ||
            (delta == best_delta && t < best)) {
          best_delta = delta;
          best = t;
        }
      }
      KANON_CHECK(best != std::numeric_limits<uint32_t>::max(),
                  "a record with <k matches must have a non-match neighbor "
                  "(is the input (k,k)-anonymous?)");

      // R̄_i := R_{j_h} + R̄_i. This upgrades R̄_{j_h} to a match of R_i:
      // swap (R_i, R̄_i) and (R_{j_h}, R̄_{j_h}) in the identity matching.
      table.GeneralizeToCover(i, dataset.row_view(best));
      ++stats.upgrade_steps;
      ++steps_for_record;
      KANON_CHECK(steps_for_record <= n, "Algorithm 6 failed to converge");

      // Right vertex i may now be consistent with more originals.
      for (uint32_t x = 0; x < n; ++x) {
        if (!graph.HasEdge(x, i) && table.ConsistentPair(dataset, x, i)) {
          graph.AddEdge(x, i);
        }
      }
      matchable = ComputeMatchableEdges(graph);
      KANON_RETURN_NOT_OK(matchable.status());
    }
    stats.max_steps_per_record =
        std::max(stats.max_steps_per_record, steps_for_record);
  }
  AccountRun(loss, table, stats, counters);
  return GlobalAnonymizationResult{std::move(table), stats};
}

}  // namespace kanon
