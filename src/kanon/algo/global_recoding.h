#ifndef KANON_ALGO_GLOBAL_RECODING_H_
#define KANON_ALGO_GLOBAL_RECODING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kanon/algo/core/engine_counters.h"
#include "kanon/common/result.h"
#include "kanon/common/run_context.h"
#include "kanon/data/dataset.h"
#include "kanon/generalization/generalized_table.h"
#include "kanon/loss/precomputed_loss.h"

namespace kanon {

/// Full-domain (global-recoding) k-anonymization, the model of Samarati
/// and of LeFevre et al.'s Incognito: one generalization *level* is chosen
/// per attribute and applied to every record uniformly. The paper contrasts
/// its local-recoding algorithms against this model (Section III: "Local
/// recoding is more flexible, hence it offers higher utility"); this
/// implementation exists to quantify that claim.
///
/// Levels are defined per attribute from the hierarchy's containment
/// chains: level 0 publishes the exact value, level ℓ publishes the ℓ-th
/// ancestor on the value's chain of permissible supersets (clamped at the
/// full domain). Requires a laminar (hierarchy-tree) collection per
/// attribute so that chains are unique.
///
/// The solver is a greedy full-domain ascent: starting from all-exact, it
/// repeatedly raises the level of the attribute whose increment yields the
/// smallest information loss (no cluster distance is involved) until the
/// table is k-anonymous. All-suppressed
/// is k-anonymous for every k ≤ n, so the search always terminates.
struct GlobalRecodingResult {
  GeneralizedTable table;
  /// Chosen level per attribute.
  std::vector<uint32_t> levels;
};

/// When `ctx` stops the ascent, every attribute jumps to its top level
/// (all records identical — k-anonymous for every k ≤ n). The per-attribute
/// trial tables of each ascent are evaluated across `num_threads` threads
/// (<= 0: hardware concurrency); the chosen levels are byte-identical at
/// every thread count. The optional `counters` (not owned) accumulates
/// engine telemetry: level bumps (upgrade_steps), trial-sweep chunks, and
/// the closure-interning statistics of the k-anonymity checks.
Result<GlobalRecodingResult> GlobalRecodingKAnonymize(
    const Dataset& dataset, const PrecomputedLoss& loss, size_t k,
    RunContext* ctx = nullptr, int num_threads = 1,
    EngineCounters* counters = nullptr);

/// The per-attribute level count (level 0 .. NumLevels-1); exposed for
/// tests and for reporting.
size_t NumGeneralizationLevels(const Hierarchy& hierarchy);

/// The subset published for `value` at `level` (clamped to the top).
SetId LevelAncestor(const Hierarchy& hierarchy, ValueCode value,
                    uint32_t level);

}  // namespace kanon

#endif  // KANON_ALGO_GLOBAL_RECODING_H_
