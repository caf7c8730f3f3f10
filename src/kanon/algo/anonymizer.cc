#include "kanon/algo/anonymizer.h"

#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "kanon/algo/agglomerative.h"
#include "kanon/algo/forest.h"
#include "kanon/algo/global_anonymizer.h"
#include "kanon/algo/global_recoding.h"
#include "kanon/algo/kk_anonymizer.h"
#include "kanon/common/timer.h"

namespace kanon {

namespace {

// Validates AnonymizerConfig::attr_weights: one finite weight >= 0 per
// attribute of `loss`, with a positive sum (a zero weight is allowed — that
// attribute generalizes for free — but not all of them).
Status ValidateAttrWeights(const PrecomputedLoss& loss,
                           const std::vector<double>& weights) {
  const size_t r = loss.scheme().num_attributes();
  if (weights.size() != r) {
    return Status::InvalidArgument("expected " + std::to_string(r) +
                                   " attribute weights, got " +
                                   std::to_string(weights.size()));
  }
  double sum = 0.0;
  for (size_t j = 0; j < weights.size(); ++j) {
    if (!std::isfinite(weights[j]) || weights[j] < 0.0) {
      return Status::InvalidArgument("attribute weight " + std::to_string(j) +
                                     " must be finite and non-negative");
    }
    sum += weights[j];
  }
  if (sum <= 0.0) {
    return Status::InvalidArgument("attribute weights must not all be zero");
  }
  return Status::OK();
}

// The method switch. `loss` is the substrate the pipeline prices clusters
// on (the reweighted copy when attribute weights are set), which may differ
// from the loss the caller reports Π under. Only the agglomerative methods
// read the cluster distance; AgglomerativeCluster dispatches it to its
// compile-time policy (docs/policy_engine.md).
Result<GeneralizedTable> RunPipeline(const Dataset& dataset,
                                     const PrecomputedLoss& loss,
                                     const AnonymizerConfig& config,
                                     EngineCounters* counters) {
  RunContext* const ctx = config.run_context;
  switch (config.method) {
    case AnonymizationMethod::kAgglomerative:
    case AnonymizationMethod::kModifiedAgglomerative: {
      AgglomerativeOptions options;
      options.distance = config.distance;
      options.params = config.params;
      options.modified =
          config.method == AnonymizationMethod::kModifiedAgglomerative;
      options.run_context = ctx;
      options.num_threads = config.num_threads;
      options.counters = counters;
      return AgglomerativeKAnonymize(dataset, loss, config.k, options);
    }
    case AnonymizationMethod::kForest:
      return ForestKAnonymize(dataset, loss, config.k, ctx, counters);
    case AnonymizationMethod::kKKNearestNeighbors:
      return KKAnonymize(dataset, loss, config.k,
                         K1Algorithm::kNearestNeighbors, ctx,
                         config.num_threads, counters);
    case AnonymizationMethod::kKKGreedyExpansion:
      return KKAnonymize(dataset, loss, config.k,
                         K1Algorithm::kGreedyExpansion, ctx,
                         config.num_threads, counters);
    case AnonymizationMethod::kGlobal: {
      Result<GeneralizedTable> kk =
          KKAnonymize(dataset, loss, config.k, K1Algorithm::kGreedyExpansion,
                      ctx, config.num_threads, counters);
      if (!kk.ok()) return kk.status();
      Result<GlobalAnonymizationResult> global = MakeGlobal1KAnonymous(
          dataset, loss, config.k, std::move(kk).value(), ctx, counters);
      if (!global.ok()) return global.status();
      return std::move(global->table);
    }
    case AnonymizationMethod::kFullDomain: {
      Result<GlobalRecodingResult> recoded = GlobalRecodingKAnonymize(
          dataset, loss, config.k, ctx, config.num_threads, counters);
      if (!recoded.ok()) return recoded.status();
      return std::move(recoded->table);
    }
  }
  return Status::Internal("unreachable anonymization method");
}

}  // namespace

const char* AnonymizationMethodName(AnonymizationMethod method) {
  return NameOf(kMethodNames, method).display;
}

const char* MethodFlagName(AnonymizationMethod method) {
  return NameOf(kMethodNames, method).flag;
}

Result<AnonymizationMethod> ParseMethodName(const std::string& flag) {
  return ParseFlagName(kMethodNames, flag, "method");
}

AnonymityNotion PromisedNotion(AnonymizationMethod method) {
  switch (method) {
    case AnonymizationMethod::kAgglomerative:
    case AnonymizationMethod::kModifiedAgglomerative:
    case AnonymizationMethod::kForest:
    case AnonymizationMethod::kFullDomain:
      return AnonymityNotion::kKAnonymity;
    case AnonymizationMethod::kKKNearestNeighbors:
    case AnonymizationMethod::kKKGreedyExpansion:
      return AnonymityNotion::kKK;
    case AnonymizationMethod::kGlobal:
      return AnonymityNotion::kGlobalOneK;
  }
  return AnonymityNotion::kKAnonymity;
}

void PublishCounters(const EngineCounters& counters, MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->GetCounter("engine.merges")->Set(counters.merges);
  metrics->GetCounter("engine.rescans")->Set(counters.rescans);
  metrics->GetCounter("engine.heap_rebuilds")->Set(counters.heap_rebuilds);
  metrics->GetCounter("engine.closure_hits")->Set(counters.closure_hits);
  metrics->GetCounter("engine.closure_misses")->Set(counters.closure_misses);
  metrics->GetCounter("engine.upgrade_steps")->Set(counters.upgrade_steps);
  metrics->GetCounter("engine.parallel_chunks")->Set(counters.parallel_chunks);
  metrics->GetGauge("engine.closure_hit_rate")
      ->Set(counters.closure_hit_rate());
}

void PublishResultMetrics(const AnonymizationResult& result,
                          MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->GetCounter("run.rows")->Set(result.table.num_rows());
  metrics->GetCounter("run.iterations_completed")
      ->Set(result.iterations_completed);
  metrics->GetCounter("run.records_suppressed")
      ->Set(result.records_suppressed);
  metrics->GetCounter("run.degraded")->Set(result.degraded ? 1 : 0);
  metrics->GetGauge("run.loss")->Set(result.loss);
  metrics->GetGauge("run.elapsed_seconds", /*deterministic=*/false)
      ->Set(result.elapsed_seconds);
  // Equivalence-class (cluster) size distribution of the published table.
  std::map<GeneralizedRecord, size_t> classes;
  for (size_t row = 0; row < result.table.num_rows(); ++row) {
    ++classes[result.table.record(row)];
  }
  Histogram* const sizes = metrics->GetHistogram(
      "cluster.size", {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128, 256});
  for (const auto& [record, size] : classes) {
    sizes->Observe(static_cast<double>(size));
  }
  metrics->GetCounter("run.clusters")->Set(classes.size());
}

Result<AnonymizationResult> Anonymize(const Dataset& dataset,
                                      const PrecomputedLoss& loss,
                                      const AnonymizerConfig& config) {
  Timer timer;
  RunContext* const ctx = config.run_context;
  // Install the run's telemetry sinks for this thread: engines and the
  // parallel sweep issuer pick them up via CurrentTracer()/CurrentMetrics().
  const ScopedTelemetry telemetry(config.tracer, config.metrics);
  PhaseSpan pipeline_span(config.tracer,
                          NameOf(kMethodNames, config.method).span);
  EngineCounters counters;
  // Attribute weights only reweight the cost substrate
  // (PrecomputedLoss::WithAttributeWeights); every pipeline then runs
  // unchanged on the reweighted copy.
  if (!config.attr_weights.empty()) {
    KANON_RETURN_NOT_OK(ValidateAttrWeights(loss, config.attr_weights));
  }
  Result<GeneralizedTable> table =
      config.attr_weights.empty()
          ? RunPipeline(dataset, loss, config, &counters)
          : RunPipeline(dataset, loss.WithAttributeWeights(config.attr_weights),
                        config, &counters);
  if (!table.ok()) return table.status();

  AnonymizationResult result{std::move(table).value(),
                             0.0,
                             0.0,
                             false,
                             StopReason::kNone,
                             0,
                             0,
                             std::string(),
                             counters};
  result.loss = loss.TableLoss(result.table);
  result.elapsed_seconds = timer.ElapsedSeconds();
  if (ctx != nullptr) {
    const RunStats& stats = ctx->stats();
    result.degraded = stats.degraded;
    result.stop_reason = stats.stop_reason;
    result.iterations_completed = stats.iterations_completed;
    result.records_suppressed = stats.records_suppressed;
    result.degraded_stage = stats.degraded_stage;
  }
  PublishCounters(counters, config.metrics);
  PublishResultMetrics(result, config.metrics);
  return result;
}

}  // namespace kanon
