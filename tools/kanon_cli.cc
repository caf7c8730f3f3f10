// Command-line anonymizer: reads a CSV, applies one of the library's
// anonymization pipelines, verifies the promised anonymity notion, and
// writes the generalized table.
//
//   kanon_cli --input=records.csv --k=5        # k >= 1
//             [--spec=hierarchies.spec]      # see scheme_spec.h; default:
//                                            # suppression-only everywhere
//             [--method=agglomerative|modified|forest|kk-nn|kk-greedy|global|full-domain]
//             [--measure=EM|LM|TM|SUP]
//             [--distance=1|2|3|4|nc]
//             [--attr-weights=w1,w2,...]     # per-attribute loss weights
//                                            # (docs/policy_engine.md); one
//                                            # finite weight >= 0 per input
//                                            # attribute, not all zero.
//                                            # Reported loss stays uniform.
//             [--output=anonymized.csv]
//             [--report]                     # print a utility report
//             [--print-spec]                 # dump the effective spec
//             [--timeout-ms=N]               # wall-clock budget; on expiry
//                                            # the run degrades gracefully
//             [--max-steps=N]                # iteration budget, same effect
//             [--threads=N]                  # worker threads for the O(n^2)
//                                            # scans; 0 = all cores; output
//                                            # is identical for every N
//             [--stats-json=PATH]            # write one JSON object with the
//                                            # loss, timing, the engine
//                                            # counters, and the full metrics
//                                            # registry ("-" = stdout)
//             [--trace-json=PATH]            # write a Chrome trace-event
//                                            # JSON of the run's phase spans
//                                            # (open in chrome://tracing or
//                                            # ui.perfetto.dev)
//             [--metrics-json=PATH]          # write the metrics registry as
//                                            # flat JSON ("-" = stdout)
//             [--progress]                   # throttled progress line on
//                                            # stderr while the run advances
//
// Out-of-core sharded mode (docs/sharding.md) — engaged by any of:
//             [--shards=N]                   # hash-partition the input into
//                                            # N shards, anonymize each
//                                            # independently, merge + repair
//             [--memory-budget-mb=N]        # derive the shard count from a
//                                            # per-shard working-set budget
//             [--work-dir=DIR]               # journal directory (spills,
//                                            # checkpoints, manifest);
//                                            # required in sharded mode
//             [--resume[=DIR]]               # continue a killed run from its
//                                            # checkpoints (byte-identical
//                                            # output); =DIR implies
//                                            # --work-dir=DIR
//             [--shard-prefix=N]             # QI-prefix width of the hash
//                                            # partitioner (default 3)
//             [--shard-attempts=N]           # engine attempts per shard
//                                            # before it is suppressed
// Sharded mode streams the CSV (the text table is never resident) and only
// accepts the per-record k-anonymity methods — their per-shard guarantees
// compose into a global one.
//
// The method, distance and measure names are the library's name tables
// (kMethodNames, kDistanceNames, MakeMeasure), the same ones kanond and
// .repro files parse.
//
// SIGINT (Ctrl-C) cancels cooperatively: the pipeline finalizes a valid
// partial result instead of dying. Exit codes:
//   0  success
//   1  failure (I/O, invalid arguments to the pipeline, notion violated)
//   2  usage error
//   3  degraded output (deadline or step budget) that still verifies
//   4  cancelled by SIGINT, with a valid partial table written
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "kanon/algo/anonymizer.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/flags.h"
#include "kanon/common/parallel.h"
#include "kanon/data/csv.h"
#include "kanon/generalization/generalized_csv.h"
#include "kanon/generalization/scheme_spec.h"
#include "kanon/loss/utility_report.h"
#include "kanon/shard/driver.h"
#include "kanon/telemetry/progress.h"
#include "kanon/telemetry/trace_export.h"

namespace kanon {
namespace {

// Written once before the handler is installed; Cancel() only stores a
// relaxed atomic bool, so the handler is async-signal-safe.
CancellationToken* g_cancel_token = nullptr;

void HandleSigint(int /*signum*/) {
  if (g_cancel_token != nullptr) g_cancel_token->Cancel();
}

// Comma-separated per-attribute weights, e.g. "2,1,1". Count and range
// validation happens in Anonymize, which knows the dataset arity.
Result<std::vector<double>> ParseAttrWeights(const std::string& spec) {
  std::vector<double> weights;
  std::stringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    char* end = nullptr;
    const double w = std::strtod(item.c_str(), &end);
    if (item.empty() || end != item.c_str() + item.size()) {
      return Status::InvalidArgument("bad --attr-weights entry '" + item +
                                     "'");
    }
    weights.push_back(w);
  }
  if (weights.empty()) {
    return Status::InvalidArgument(
        "--attr-weights must list at least one weight");
  }
  return weights;
}

// printf into a std::string.
template <typename... Args>
std::string Printf(const char* format, Args... args) {
  std::string out(
      static_cast<size_t>(std::snprintf(nullptr, 0, format, args...)), '\0');
  std::snprintf(out.data(), out.size() + 1, format, args...);
  return out;
}

// The JSON fields of an in-memory run: its outcome and the algo/core engine
// counters. The counters are deterministic at every thread count, so this
// is a stable regression surface (the cli_stats_json test pins it).
std::string RunStatsFields(const AnonymizationResult& result) {
  std::ostringstream out;
  out.precision(17);
  const EngineCounters& c = result.counters;
  out << "\"elapsed_seconds\":" << result.elapsed_seconds << ",";
  out << "\"degraded\":" << (result.degraded ? "true" : "false") << ",";
  out << "\"degraded_stage\":\"" << result.degraded_stage << "\",";
  out << "\"iterations_completed\":" << result.iterations_completed << ",";
  out << "\"records_suppressed\":" << result.records_suppressed << ",";
  out << "\"counters\":{";
  out << "\"merges\":" << c.merges << ",";
  out << "\"rescans\":" << c.rescans << ",";
  out << "\"heap_rebuilds\":" << c.heap_rebuilds << ",";
  out << "\"closure_hits\":" << c.closure_hits << ",";
  out << "\"closure_misses\":" << c.closure_misses << ",";
  out << "\"closure_hit_rate\":" << c.closure_hit_rate() << ",";
  out << "\"upgrade_steps\":" << c.upgrade_steps << ",";
  out << "\"parallel_chunks\":" << c.parallel_chunks;
  out << "}";
  return out.str();
}

// The JSON fields of a sharded run: its outcome and per-shard accounting.
std::string ShardStatsFields(const shard::ShardedResult& result) {
  std::ostringstream out;
  out << "\"rows\":" << result.rows << ",";
  out << "\"degraded\":" << (result.degraded ? "true" : "false") << ",";
  out << "\"stop_reason\":\"" << StopReasonName(result.stop_reason) << "\",";
  out << "\"records_suppressed\":" << result.records_suppressed << ",";
  out << "\"shards\":" << result.num_shards << ",";
  out << "\"shards_resumed\":" << result.shards_resumed << ",";
  out << "\"shards_suppressed\":" << result.shards_suppressed << ",";
  out << "\"shard_retries\":" << result.shard_retries << ",";
  out << "\"boundary_repaired\":" << result.boundary_repaired;
  return out.str();
}

// The --stats-json object: one JSON line with the run's settings and loss,
// the mode's own `fields`, and the full metrics registry (a superset of the
// counters, plus the run.* gauges and histograms). Stable field order.
std::string StatsJson(const AnonymizerConfig& config,
                      const std::string& measure_name, double loss,
                      const std::string& fields,
                      const MetricsRegistry* metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  out << "\"method\":\"" << AnonymizationMethodName(config.method) << "\",";
  out << "\"k\":" << config.k << ",";
  out << "\"measure\":\"" << measure_name << "\",";
  out << "\"loss\":" << loss << ",";
  out << fields;
  if (metrics != nullptr) {
    std::string registry = metrics->ToJson(/*include_nondeterministic=*/true);
    while (!registry.empty() && registry.back() == '\n') registry.pop_back();
    out << ",\"metrics\":" << registry;
  }
  out << "}\n";
  return out.str();
}

// One flow for both modes. The in-memory mode reads the whole table and
// runs Anonymize; the sharded mode streams the CSV into shard spills, runs
// the engine per shard with checkpoint/resume, merges and repairs, and
// never holds the text table. They differ only in the engine call, the
// verifier (the sharded table is checked against Definition 4.1 without
// the dataset) and the stats object.
int RealMain(int argc, char** argv) {
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }
  const std::string input = flags.GetString("input", "");
  if (input.empty()) {
    std::fprintf(stderr,
                 "usage: kanon_cli --input=records.csv --k=5 [--spec=...]"
                 " [--method=...] [--measure=EM] [--distance=4]"
                 " [--attr-weights=w1,w2,...]"
                 " [--output=...] [--print-spec] [--timeout-ms=N]"
                 " [--max-steps=N] [--threads=N] [--stats-json=PATH]"
                 " [--trace-json=PATH] [--metrics-json=PATH] [--progress]"
                 " [--shards=N] [--memory-budget-mb=N] [--work-dir=DIR]"
                 " [--resume[=DIR]]\n");
    return 2;
  }
  const bool sharded = flags.GetInt("shards", 0) > 0 ||
                       flags.GetInt("memory-budget-mb", 0) > 0 ||
                       flags.Has("resume");
  shard::ShardOptions shard_options;
  if (sharded) {
    shard_options.num_shards = static_cast<size_t>(flags.GetInt("shards", 0));
    shard_options.memory_budget_mb =
        static_cast<size_t>(flags.GetInt("memory-budget-mb", 0));
    shard_options.resume = flags.Has("resume");
    shard_options.work_dir = flags.GetString("work-dir", "");
    const std::string resume_dir = flags.GetString("resume", "");
    if (shard_options.work_dir.empty() && resume_dir != "true") {
      shard_options.work_dir = resume_dir;
    }
    if (shard_options.work_dir.empty()) {
      std::fprintf(stderr,
                   "error: sharded mode needs --work-dir=DIR (or "
                   "--resume=DIR)\n");
      return 2;
    }
    shard_options.prefix_attributes =
        static_cast<size_t>(flags.GetInt("shard-prefix", 3));
    shard_options.max_attempts =
        static_cast<size_t>(flags.GetInt("shard-attempts", 3));
  }
  const int64_t k = flags.GetInt("k", 5);
  if (k < 1) {
    std::fprintf(stderr, "error: k must be a positive integer\n");
    return 2;
  }

  // The input: read whole, or (sharded) one streaming pass that only infers
  // the schema.
  const Result<Dataset> dataset =
      sharded ? Result<Dataset>(Status::Internal("sharded mode streams"))
              : ReadCsvInferSchemaFile(input);
  const Result<Schema> streamed_schema =
      sharded ? InferCsvSchemaFile(input)
              : Result<Schema>(Status::Internal("in-memory mode"));
  if (const Status& s = sharded ? streamed_schema.status() : dataset.status();
      !s.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", input.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  if (!sharded) {
    std::fprintf(stderr, "read %zu rows x %zu attributes from %s\n",
                 dataset->num_rows(), dataset->num_attributes(),
                 input.c_str());
  }
  const Schema& schema = sharded ? *streamed_schema : dataset->schema();

  // Generalization scheme: from the spec file, or suppression-only.
  Result<GeneralizationScheme> scheme = Status::Internal("unset");
  const std::string spec = flags.GetString("spec", "");
  if (!spec.empty()) {
    scheme = ParseSchemeSpecFile(schema, spec);
  } else {
    scheme = GeneralizationScheme::SuppressionOnly(schema);
    std::fprintf(stderr,
                 "no --spec given: every attribute is suppression-only"
                 " (coarse; consider writing a spec)\n");
  }
  if (!scheme.ok()) {
    std::fprintf(stderr, "error in scheme: %s\n",
                 scheme.status().ToString().c_str());
    return 1;
  }
  auto scheme_ptr =
      std::make_shared<const GeneralizationScheme>(std::move(scheme).value());
  if (flags.GetBool("print-spec", false)) {
    std::printf("%s", FormatSchemeSpec(*scheme_ptr).c_str());
    return 0;
  }

  const Result<std::unique_ptr<LossMeasure>> measure =
      MakeMeasure(flags.GetString("measure", "EM"));
  const Result<AnonymizationMethod> method =
      ParseMethodName(flags.GetString("method", "agglomerative"));
  const Result<DistanceFunction> distance =
      ParseDistanceName(flags.GetString("distance", "4"));
  for (const Status* s :
       {&measure.status(), &method.status(), &distance.status()}) {
    if (!s->ok()) {
      std::fprintf(stderr, "error: %s\n", s->ToString().c_str());
      return 2;
    }
  }
  const std::string measure_name = measure.value()->name();

  AnonymizerConfig config;
  config.k = static_cast<size_t>(k);
  config.method = *method;
  config.distance = *distance;
  // 0 (the default) uses every core; the output does not depend on this.
  config.num_threads =
      ResolveNumThreads(static_cast<int>(flags.GetInt("threads", 0)));
  if (flags.Has("attr-weights")) {
    Result<std::vector<double>> weights =
        ParseAttrWeights(flags.GetString("attr-weights", ""));
    if (!weights.ok()) {
      std::fprintf(stderr, "error: %s\n", weights.status().ToString().c_str());
      return 2;
    }
    config.attr_weights = std::move(weights).value();
  }

  // Execution controls: deadline, step budget, Ctrl-C cancellation.
  RunContext ctx;
  auto cancel_token = std::make_shared<CancellationToken>();
  ctx.set_cancel_token(cancel_token);
  g_cancel_token = cancel_token.get();
  std::signal(SIGINT, HandleSigint);
  const int64_t max_steps = flags.GetInt("max-steps", 0);
  if (max_steps > 0) ctx.set_step_budget(static_cast<size_t>(max_steps));
  const int64_t timeout_ms = flags.GetInt("timeout-ms", 0);
  if (timeout_ms > 0) ctx.ArmDeadline(static_cast<double>(timeout_ms) / 1000.0);
  config.run_context = &ctx;

  // Telemetry (docs/observability.md): the tracer exists only when a trace
  // was asked for; the metrics registry whenever any JSON output wants it.
  const std::string trace_path = flags.GetString("trace-json", "");
  const std::string metrics_path = flags.GetString("metrics-json", "");
  const std::string stats_path = flags.GetString("stats-json", "");
  std::unique_ptr<Tracer> tracer;
  if (!trace_path.empty()) {
    tracer = std::make_unique<Tracer>();
    config.tracer = tracer.get();
  }
  std::unique_ptr<MetricsRegistry> metrics;
  if (!metrics_path.empty() || !stats_path.empty()) {
    metrics = std::make_unique<MetricsRegistry>();
    config.metrics = metrics.get();
  }
  ProgressReporter progress_reporter;
  if (flags.GetBool("progress", false)) {
    ctx.set_progress_observer(progress_reporter.AsObserver());
  }

  // The engine call. Each mode leaves the table, how it degraded, its stats
  // object and its wording of the summary and degradation lines.
  GeneralizedTable table(scheme_ptr);
  bool degraded = false;
  StopReason stop_reason = StopReason::kNone;
  std::string stats;
  std::string summary;
  std::string degraded_detail;
  if (sharded) {
    Result<shard::ShardedResult> result = shard::ShardedAnonymizeCsvFile(
        input, scheme_ptr, CsvOptions(), *measure.value(), config,
        shard_options);
    progress_reporter.Finish();
    if (!result.ok()) {
      std::fprintf(stderr, "sharded anonymization failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    if (flags.GetBool("report", false)) {
      std::fprintf(stderr,
                   "note: --report needs the full dataset in memory and is"
                   " skipped in sharded mode\n");
    }
    if (!stats_path.empty()) {
      stats = StatsJson(config, measure_name, result->loss,
                        ShardStatsFields(*result), metrics.get());
    }
    summary = Printf(
        "sharded %s, k=%zu: %zu rows in %zu shards, loss(%s) = %.4f;"
        " resumed %zu, suppressed %zu, retries %zu, repaired %zu",
        AnonymizationMethodName(config.method), config.k, result->rows,
        result->num_shards, measure_name.c_str(), result->loss,
        result->shards_resumed, result->shards_suppressed,
        result->shard_retries, result->boundary_repaired);
    degraded_detail = ":";
    table = std::move(result->table);
    degraded = result->degraded;
    stop_reason = result->stop_reason;
  } else {
    const PrecomputedLoss loss(scheme_ptr, dataset.value(), *measure.value(),
                               config.num_threads);
    Result<AnonymizationResult> result =
        Anonymize(dataset.value(), loss, config);
    progress_reporter.Finish();
    if (!result.ok()) {
      std::fprintf(stderr, "anonymization failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    if (flags.GetBool("report", false)) {
      std::fprintf(stderr, "%s",
                   BuildUtilityReport(dataset.value(), result->table)
                       .ToString()
                       .c_str());
      std::fprintf(stderr,
                   "degraded: %s\nstop reason: %s\niterations completed: "
                   "%zu\nrecords suppressed by fallback: %zu\n",
                   result->degraded ? "yes" : "no",
                   StopReasonName(result->stop_reason),
                   result->iterations_completed, result->records_suppressed);
    }
    if (!stats_path.empty()) {
      stats = StatsJson(config, measure_name, result->loss,
                        RunStatsFields(*result), metrics.get());
    }
    summary = Printf("method %s, k=%zu: loss(%s) = %.4f, %.2fs",
                     AnonymizationMethodName(config.method), config.k,
                     measure_name.c_str(), result->loss,
                     result->elapsed_seconds);
    degraded_detail = Printf(
        " in stage %s after %zu iterations; %zu records coarsened by the"
        " fallback —",
        result->degraded_stage.empty() ? "unknown"
                                       : result->degraded_stage.c_str(),
        result->iterations_completed, result->records_suppressed);
    table = std::move(result->table);
    degraded = result->degraded;
    stop_reason = result->stop_reason;
  }

  if (tracer != nullptr) {
    if (Status s = WriteChromeTrace(*tracer, trace_path); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote trace %s (%zu spans, %zu lanes)\n",
                 trace_path.c_str(), tracer->total_spans(),
                 tracer->num_lanes());
  }
  if (metrics != nullptr && !metrics_path.empty()) {
    if (Status s = WriteMetricsJson(*metrics, metrics_path); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    if (metrics_path != "-") {
      std::fprintf(stderr, "wrote metrics %s\n", metrics_path.c_str());
    }
  }
  if (stats_path == "-") {
    std::fputs(stats.c_str(), stdout);
  } else if (!stats_path.empty()) {
    std::ofstream out(stats_path);
    out << stats;
    if (!out) {
      std::fprintf(stderr, "error writing %s\n", stats_path.c_str());
      return 1;
    }
  }

  const AnonymityNotion notion = PromisedNotion(config.method);
  const Result<bool> verified =
      sharded ? IsKAnonymous(table, config.k)
              : SatisfiesNotion(notion, dataset.value(), table, config.k);
  if (!verified.ok()) {
    std::fprintf(stderr, "verification failed: %s\n",
                 verified.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "%s; %s: %s\n", summary.c_str(),
               AnonymityNotionName(notion),
               verified.value() ? "satisfied" : "VIOLATED");
  if (degraded) {
    std::fprintf(stderr, "run degraded (%s)%s output is valid but lossier\n",
                 StopReasonName(stop_reason), degraded_detail.c_str());
  }
  if (!verified.value()) return 1;

  const std::string output = flags.GetString("output", "");
  if (!output.empty()) {
    if (Status s = WriteGeneralizedCsvFile(table, output); !s.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", output.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", output.c_str());
  } else {
    Status s = WriteGeneralizedCsv(table, std::cout);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (degraded) return stop_reason == StopReason::kCancelled ? 4 : 3;
  return 0;
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::RealMain(argc, argv); }
