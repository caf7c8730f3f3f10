#ifndef KANON_ALGO_ANONYMIZER_H_
#define KANON_ALGO_ANONYMIZER_H_

#include <string>
#include <vector>

#include "kanon/algo/core/engine_counters.h"
#include "kanon/algo/distance.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/result.h"
#include "kanon/common/run_context.h"
#include "kanon/data/dataset.h"
#include "kanon/generalization/generalized_table.h"
#include "kanon/loss/precomputed_loss.h"
#include "kanon/telemetry/metrics.h"
#include "kanon/telemetry/tracer.h"

namespace kanon {

/// Every anonymization pipeline in the library, behind one switch.
enum class AnonymizationMethod {
  /// Algorithm 1 with a configurable distance function.
  kAgglomerative,
  /// Algorithms 1+2 (ripe clusters shrunk back to size k).
  kModifiedAgglomerative,
  /// The forest baseline of Aggarwal et al.
  kForest,
  /// (k,k): Algorithm 3 (nearest neighbors) + Algorithm 5.
  kKKNearestNeighbors,
  /// (k,k): Algorithm 4 (greedy expansion) + Algorithm 5.
  kKKGreedyExpansion,
  /// Global (1,k): Algorithm 4 + Algorithm 5 + Algorithm 6.
  kGlobal,
  /// Full-domain (global-recoding) baseline — one level per attribute
  /// (Section III's comparison model; requires laminar hierarchies).
  kFullDomain,
};

const char* AnonymizationMethodName(AnonymizationMethod method);

/// The anonymity notion a method promises: the contract its output is
/// verified against (by kanon_cli after every run and by the kanon_check
/// properties).
AnonymityNotion PromisedNotion(AnonymizationMethod method);

struct AnonymizerConfig {
  size_t k = 5;
  AnonymizationMethod method = AnonymizationMethod::kAgglomerative;
  /// Used by the agglomerative methods only.
  DistanceFunction distance = DistanceFunction::kLogWeighted;
  DistanceParams params;
  /// Per-attribute weights for the information-loss measure (empty = uniform,
  /// the default). With weights, every pipeline prices records by the
  /// weighted average Σ_j w_j·cost_j / Σw instead of (1/r)·Σ_j cost_j —
  /// implemented as a transform of the cost substrate
  /// (PrecomputedLoss::WithAttributeWeights) that the chosen pipeline then
  /// runs on; no pipeline knows weights exist. Requires one finite weight
  /// >= 0 per attribute with a positive sum. The reported
  /// AnonymizationResult::loss stays Π under the ORIGINAL (uniform) measure,
  /// so runs with different weights are comparable. CLI: --attr-weights.
  std::vector<double> attr_weights;
  /// Worker threads for the O(n²·r) scans of the agglomerative, (k,k), and
  /// full-domain pipelines (the forest baseline stays single-threaded).
  /// <= 0 resolves to the hardware concurrency; 1 (the default) runs
  /// single-threaded. Results are byte-identical at every thread count
  /// (see docs/parallelism.md).
  int num_threads = 1;
  /// Optional execution controls (deadline, cancellation, step budget,
  /// progress observer). Not owned; must outlive the Anonymize() call. When
  /// the context stops the run, the pipeline finalizes a degraded — but
  /// still valid — table instead of aborting; the outcome is reported in
  /// AnonymizationResult. See docs/robustness.md.
  RunContext* run_context = nullptr;
  /// Optional telemetry sinks (docs/observability.md). Not owned; must
  /// outlive the Anonymize() call. With a tracer, every engine phase and
  /// parallel sweep records a span (export via WriteChromeTrace); with a
  /// metrics registry, the run publishes the engine.* / run.* catalog and
  /// the cluster-size and merge-cost histograms. Null (the default) keeps
  /// every instrumentation point a no-op.
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
};

struct AnonymizationResult {
  GeneralizedTable table;
  /// Π(D, g(D)) under the loss measure the pipeline optimized.
  double loss = 0.0;
  double elapsed_seconds = 0.0;
  /// True when the run was cut short (deadline, cancellation, or step
  /// budget) and a degradation fallback produced the table. The table still
  /// satisfies the promised anonymity notion — it is just lossier.
  bool degraded = false;
  /// Why the run wound down early (kNone when it ran to completion).
  StopReason stop_reason = StopReason::kNone;
  /// Cooperative checkpoints passed (merge/expansion iterations).
  size_t iterations_completed = 0;
  /// Records coarsened beyond plan by the fallback (pooled or suppressed).
  size_t records_suppressed = 0;
  /// First stage that had to degrade ("" when the run completed), e.g.
  /// "agglomerative/merge".
  std::string degraded_stage;
  /// Engine telemetry from the algo/core components (merges, rescans, heap
  /// rebuilds, closure-cache hit rate, parallel-sweep chunks). Deterministic
  /// at every thread count; surfaced by `kanon_cli --stats-json`.
  EngineCounters counters;
};

/// Publishes the engine counters into `metrics` as typed metrics: one
/// `engine.<field>` counter per EngineCounters field plus the
/// `engine.closure_hit_rate` gauge. All deterministic. Null registry = no-op.
void PublishCounters(const EngineCounters& counters, MetricsRegistry* metrics);

/// Publishes run-level outcome metrics (`run.*` counters/gauges — loss,
/// iterations, suppression, degradation; `run.elapsed_seconds` is flagged
/// nondeterministic) and the `cluster.size` histogram of equivalence-class
/// sizes in the final table. Null registry = no-op.
void PublishResultMetrics(const AnonymizationResult& result,
                          MetricsRegistry* metrics);

/// Runs the configured pipeline on `dataset`, optimizing `loss`.
/// This is the recommended entry point for library users; the individual
/// algorithms remain available in the algo/ headers.
Result<AnonymizationResult> Anonymize(const Dataset& dataset,
                                      const PrecomputedLoss& loss,
                                      const AnonymizerConfig& config);

}  // namespace kanon

#endif  // KANON_ALGO_ANONYMIZER_H_
