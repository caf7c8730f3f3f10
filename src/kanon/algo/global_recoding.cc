#include "kanon/algo/global_recoding.h"

#include <algorithm>
#include <limits>

#include "kanon/algo/core/closure_store.h"
#include "kanon/common/check.h"
#include "kanon/common/failpoint.h"
#include "kanon/common/parallel.h"
#include "kanon/telemetry/tracer.h"

namespace kanon {

namespace {

// The chain of permissible supersets of {value}, smallest first. Laminar
// collections make this chain unique (sets containing a point are nested).
std::vector<SetId> ChainOf(const Hierarchy& h, ValueCode value) {
  std::vector<SetId> chain;
  for (SetId s = 0; s < h.num_sets(); ++s) {
    if (h.Contains(s, value)) {
      chain.push_back(s);
    }
  }
  // Ids are sorted by cardinality; within a laminar chain cardinality is
  // strictly increasing, so the id order is the chain order.
  return chain;
}

// levels[j][level][value] -> SetId.
std::vector<std::vector<std::vector<SetId>>> BuildLevelTables(
    const GeneralizationScheme& scheme) {
  const size_t r = scheme.num_attributes();
  std::vector<std::vector<std::vector<SetId>>> tables(r);
  for (size_t j = 0; j < r; ++j) {
    const Hierarchy& h = scheme.hierarchy(j);
    size_t max_len = 1;
    std::vector<std::vector<SetId>> chains(h.domain_size());
    for (size_t v = 0; v < h.domain_size(); ++v) {
      chains[v] = ChainOf(h, static_cast<ValueCode>(v));
      max_len = std::max(max_len, chains[v].size());
    }
    tables[j].resize(max_len, std::vector<SetId>(h.domain_size()));
    for (size_t level = 0; level < max_len; ++level) {
      for (size_t v = 0; v < h.domain_size(); ++v) {
        const size_t idx = std::min(level, chains[v].size() - 1);
        tables[j][level][v] = chains[v][idx];
      }
    }
  }
  return tables;
}

// Applies a level vector to the whole dataset.
GeneralizedTable ApplyLevels(
    const Dataset& dataset,
    std::shared_ptr<const GeneralizationScheme> scheme,
    const std::vector<std::vector<std::vector<SetId>>>& tables,
    const std::vector<uint32_t>& levels) {
  GeneralizedTable table(scheme);
  const size_t r = dataset.num_attributes();
  // Hoist the selected level row per attribute; each record is then one
  // table lookup per cell over a zero-copy row view.
  std::vector<const SetId*> level_row(r);
  for (size_t j = 0; j < r; ++j) {
    level_row[j] = tables[j][levels[j]].data();
  }
  GeneralizedRecord record(r);
  for (size_t i = 0; i < dataset.num_rows(); ++i) {
    const RowView row = dataset.row_view(i);
    for (size_t j = 0; j < r; ++j) {
      record[j] = level_row[j][row[j]];
    }
    table.AppendRecord(record);
  }
  return table;
}

// Group-size check through the interned closure ids: one hash lookup per
// row (duplicate rows are cache hits) instead of lexicographic map compares.
// The store persists across ascent rounds, so ids stay dense and rows seen
// in earlier rounds are already priced.
bool TableIsKAnonymous(ClosureStore* store, const GeneralizedTable& table,
                       size_t k) {
  const std::vector<ClosureStore::Id> ids = store->InternTable(table);
  std::vector<size_t> counts(store->size(), 0);
  for (ClosureStore::Id id : ids) ++counts[id];
  for (ClosureStore::Id id : ids) {
    if (counts[id] < k) return false;
  }
  return true;
}

}  // namespace

size_t NumGeneralizationLevels(const Hierarchy& hierarchy) {
  size_t max_len = 1;
  for (size_t v = 0; v < hierarchy.domain_size(); ++v) {
    max_len =
        std::max(max_len, ChainOf(hierarchy, static_cast<ValueCode>(v)).size());
  }
  return max_len;
}

SetId LevelAncestor(const Hierarchy& hierarchy, ValueCode value,
                    uint32_t level) {
  const std::vector<SetId> chain = ChainOf(hierarchy, value);
  return chain[std::min<size_t>(level, chain.size() - 1)];
}

Result<GlobalRecodingResult> GlobalRecodingKAnonymize(
    const Dataset& dataset, const PrecomputedLoss& loss, size_t k,
    RunContext* ctx, int num_threads, EngineCounters* counters) {
  const size_t n = dataset.num_rows();
  const size_t r = dataset.num_attributes();
  if (k < 1) {
    return Status::InvalidArgument("k must be at least 1");
  }
  if (k > n) {
    return Status::InvalidArgument("k exceeds the number of records");
  }
  const GeneralizationScheme& scheme = loss.scheme();
  if (r != scheme.num_attributes()) {
    return Status::InvalidArgument("dataset/loss arity mismatch");
  }
  for (size_t j = 0; j < r; ++j) {
    if (!scheme.hierarchy(j).IsLaminar()) {
      return Status::FailedPrecondition(
          "global recoding requires laminar hierarchies (attribute '" +
          scheme.schema().attribute(j).name() + "' is not)");
    }
  }

  const auto tables = BuildLevelTables(scheme);
  std::vector<uint32_t> levels(r, 0);

  ClosureStore store(loss);
  GeneralizedTable current = ApplyLevels(dataset, loss.scheme_ptr(), tables,
                                         levels);
  PhaseSpan ascent_span(CurrentTracer(), "full-domain/ascent");
  while (!TableIsKAnonymous(&store, current, k)) {
    if (ctx != nullptr && ctx->CheckPoint("full-domain/ascent")) {
      // Degradation: jump every attribute to its top level. All records
      // become identical — k-anonymous for every k <= n.
      for (size_t j = 0; j < r; ++j) {
        levels[j] = static_cast<uint32_t>(tables[j].size() - 1);
      }
      ctx->NoteDegraded("full-domain/ascent");
      ctx->AddRecordsSuppressed(n);
      current = ApplyLevels(dataset, loss.scheme_ptr(), tables, levels);
      store.ExportCounters(counters);
      return GlobalRecodingResult{std::move(current), std::move(levels)};
    }
    KANON_FAILPOINT("full_domain.step");
    // Raise the attribute whose bump loses the least information. Each
    // trial applies one candidate level vector to the whole table — the
    // O(r·n·r) inner cost of the ascent — so the trials run as a parallel
    // argmin; maxed-out attributes opt out with +infinity. Smallest index
    // wins ties, exactly like the serial strict-< scan this replaces.
    if (counters != nullptr) {
      counters->parallel_chunks += ParallelChunkCount(r);
    }
    const ArgminResult best = ParallelArgmin(
        r, num_threads, nullptr, "full-domain/ascent", [&](size_t j) {
          if (levels[j] + 1 >= tables[j].size()) {
            return std::numeric_limits<double>::infinity();
          }
          std::vector<uint32_t> trial = levels;
          ++trial[j];
          return loss.TableLoss(
              ApplyLevels(dataset, loss.scheme_ptr(), tables, trial));
        });
    KANON_CHECK(best.valid &&
                    best.value < std::numeric_limits<double>::infinity(),
                "all attributes fully suppressed must be k-anonymous");
    ++levels[best.index];
    if (counters != nullptr) ++counters->upgrade_steps;
    current = ApplyLevels(dataset, loss.scheme_ptr(), tables, levels);
  }
  store.ExportCounters(counters);
  return GlobalRecodingResult{std::move(current), std::move(levels)};
}

}  // namespace kanon
