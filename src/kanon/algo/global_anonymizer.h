#ifndef KANON_ALGO_GLOBAL_ANONYMIZER_H_
#define KANON_ALGO_GLOBAL_ANONYMIZER_H_

#include <cstdint>

#include "kanon/algo/core/engine_counters.h"
#include "kanon/common/result.h"
#include "kanon/common/run_context.h"
#include "kanon/data/dataset.h"
#include "kanon/generalization/generalized_table.h"
#include "kanon/loss/precomputed_loss.h"

namespace kanon {

/// Statistics of a global-anonymization run (Section V-C).
struct GlobalAnonymizerStats {
  /// Records whose initial match count was below k.
  size_t deficient_records = 0;
  /// Total generalization steps performed (the paper observes that almost
  /// always one step per deficient record suffices).
  size_t upgrade_steps = 0;
  /// Largest number of steps needed by a single record.
  size_t max_steps_per_record = 0;
};

struct GlobalAnonymizationResult {
  GeneralizedTable table;
  GlobalAnonymizerStats stats;
};

/// Algorithm 6: transforms a (k,k)-anonymization into a global
/// (1,k)-anonymization. For every record R_i with fewer than k matches
/// (edges of V_{D,g(D)} completable to a perfect matching), the non-match
/// neighbor R̄_{j_h} minimizing c(R_{j_h} + R̄_i) − c(R̄_i) is chosen and
/// R̄_i is generalized to also cover the original record R_{j_h}; this
/// upgrades R̄_{j_h} to a match of R_i (swap the two pairs in the identity
/// matching), and is repeated until R_i has at least k matches. The price
/// is a plain closure-cost difference; no cluster distance is involved.
///
/// Requires `table` to be row-aligned with `dataset` with R̄_i generalizing
/// R_i (as the algorithms of Section V-B produce), and to satisfy
/// (k,k)-anonymity. Matches are recomputed with the matching+SCC algorithm,
/// so the overall cost is O(#steps · (n·r + m)) instead of the paper's
/// O(√n·m²).
/// When `ctx` stops the run mid-upgrade, every record is generalized to the
/// common closure of the whole table — one identical group of n ≥ k rows,
/// which is globally (1,k)-anonymous outright.
/// The optional `counters` (not owned) accumulates engine telemetry: upgrade
/// steps and the closure-interning statistics of the final table.
Result<GlobalAnonymizationResult> MakeGlobal1KAnonymous(
    const Dataset& dataset, const PrecomputedLoss& loss, size_t k,
    GeneralizedTable table, RunContext* ctx = nullptr,
    EngineCounters* counters = nullptr);

}  // namespace kanon

#endif  // KANON_ALGO_GLOBAL_ANONYMIZER_H_
