// The benchmark's traced stand-in for one kanon_cli run. It makes the same
// public library calls as kanon_cli's in-memory path, in the same order,
// and times each call from the outside, so the per-layer seconds add up to
// the job and the rest of the process wall time is unattributed. Nothing
// inside the library is instrumented.
//
//   layer_probe --input=t.csv --spec=t.spec --k=10 --output=out.csv
//               [--extras]
//       One `kanon_cli --method=agglomerative --threads=1` job, verified as
//       k-anonymous;
//       prints one JSON object with the layer times, the loss and the engine
//       counters. --extras then also times the consistency graph of the
//       output, the matchable-edge pass and the same Anonymize call at two
//       threads (whose table must match byte for byte).
//   layer_probe --setup-reps=N --input=t.csv --spec=t.spec
//       Times N rounds of the work kanon_cli does before its first engine
//       step: read the CSV, parse the spec, build the EM cost tables.
//   layer_probe --preflight=pairs.tsv
//       Loads every "csv<TAB>spec" pair through ReadCsvInferSchema and
//       ParseSchemeSpec and lists the pairs the library rejects.
//
// Exit codes: 0 ok, 1 a library call failed or the notion is violated,
// 2 usage error.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "kanon/algo/anonymizer.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/flags.h"
#include "kanon/data/csv.h"
#include "kanon/generalization/generalized_csv.h"
#include "kanon/generalization/scheme_spec.h"
#include "kanon/graph/consistency_graph.h"
#include "kanon/graph/matchable_edges.h"
#include "kanon/loss/precomputed_loss.h"
#include "kanon/serve/json.h"
#include "kanon/serve/params.h"

namespace kanon {
namespace {

using serve::Json;
using Clock = std::chrono::steady_clock;

// The benchmark runs every job at one engine thread; --extras times the
// engine again at two.
constexpr int kThreads = 1;
constexpr int kCompareThreads = 2;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "layer_probe: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return 1;
}

int Preflight(const std::string& list_path) {
  std::ifstream list(list_path);
  if (!list) {
    std::fprintf(stderr, "layer_probe: cannot open %s\n", list_path.c_str());
    return 2;
  }
  Json rejected = Json::Array();
  int64_t checked = 0;
  std::string line;
  while (std::getline(list, line)) {
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    const std::string csv_path = line.substr(0, tab);
    const std::string spec_path = line.substr(tab + 1);
    ++checked;
    std::ifstream csv(csv_path);
    Result<Dataset> dataset = ReadCsvInferSchema(csv);
    Status status = dataset.status();
    if (status.ok()) {
      std::ifstream spec(spec_path);
      status = ParseSchemeSpec(dataset->schema(), spec).status();
    }
    if (!status.ok()) {
      Json entry = Json::Object();
      entry.Set("csv", Json::Str(csv_path));
      entry.Set("error", Json::Str(status.ToString()));
      rejected.Push(std::move(entry));
    }
  }
  Json out = Json::Object();
  out.Set("checked", Json::Number(checked));
  out.Set("rejected", std::move(rejected));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

int SetupReps(const FlagParser& flags, int64_t reps) {
  const std::string input = flags.GetString("input", "");
  const std::string spec = flags.GetString("spec", "");
  Result<std::unique_ptr<LossMeasure>> measure = serve::MakeMeasure("EM");
  if (!measure.ok()) return Fail("measure", measure.status());
  Json samples = Json::Array();
  for (int64_t rep = 0; rep < reps; ++rep) {
    const Clock::time_point start = Clock::now();
    Result<Dataset> dataset = ReadCsvInferSchemaFile(input);
    if (!dataset.ok()) return Fail("read " + input, dataset.status());
    Result<GeneralizationScheme> scheme =
        ParseSchemeSpecFile(dataset->schema(), spec);
    if (!scheme.ok()) return Fail("spec " + spec, scheme.status());
    PrecomputedLoss loss(
        std::make_shared<const GeneralizationScheme>(std::move(scheme).value()),
        dataset.value(), *measure.value(), kThreads);
    samples.Push(Json::Number(SecondsSince(start)));
  }
  Json out = Json::Object();
  out.Set("setup_s", std::move(samples));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

Json CountersJson(const AnonymizationResult& result) {
  const EngineCounters& c = result.counters;
  Json out = Json::Object();
  out.Set("algo.merges", Json::Number(static_cast<int64_t>(c.merges)));
  out.Set("algo.rescans", Json::Number(static_cast<int64_t>(c.rescans)));
  out.Set("algo.heap_rebuilds",
          Json::Number(static_cast<int64_t>(c.heap_rebuilds)));
  out.Set("algo.closure_hits",
          Json::Number(static_cast<int64_t>(c.closure_hits)));
  out.Set("algo.closure_misses",
          Json::Number(static_cast<int64_t>(c.closure_misses)));
  out.Set("algo.upgrade_steps",
          Json::Number(static_cast<int64_t>(c.upgrade_steps)));
  out.Set("algo.parallel_chunks",
          Json::Number(static_cast<int64_t>(c.parallel_chunks)));
  out.Set("algo.records_suppressed",
          Json::Number(static_cast<int64_t>(result.records_suppressed)));
  return out;
}

std::string CsvBytes(const GeneralizedTable& table) {
  std::ostringstream out;
  if (!WriteGeneralizedCsv(table, out).ok()) return "";
  return out.str();
}

int Job(const FlagParser& flags, bool extras) {
  const std::string input = flags.GetString("input", "");
  const std::string spec = flags.GetString("spec", "");
  const std::string output = flags.GetString("output", "");
  const size_t k = static_cast<size_t>(flags.GetInt("k", 5));
  if (input.empty() || spec.empty() || output.empty()) {
    std::fprintf(stderr, "layer_probe: --input, --spec and --output are "
                         "required\n");
    return 2;
  }
  // kanon_cli's defaults: distance 4 (ratio) and the EM measure.
  Result<DistanceFunction> distance = serve::ParseDistanceName("4");
  if (!distance.ok()) return Fail("distance", distance.status());
  Result<std::unique_ptr<LossMeasure>> measure = serve::MakeMeasure("EM");
  if (!measure.ok()) return Fail("measure", measure.status());

  Json layers = Json::Object();
  Clock::time_point start = Clock::now();
  Result<Dataset> dataset = ReadCsvInferSchemaFile(input);
  if (!dataset.ok()) return Fail("read " + input, dataset.status());
  layers.Set("data.read_s", Json::Number(SecondsSince(start)));

  start = Clock::now();
  Result<GeneralizationScheme> scheme =
      ParseSchemeSpecFile(dataset->schema(), spec);
  if (!scheme.ok()) return Fail("spec " + spec, scheme.status());
  layers.Set("generalization.spec_s", Json::Number(SecondsSince(start)));
  auto scheme_ptr =
      std::make_shared<const GeneralizationScheme>(std::move(scheme).value());

  start = Clock::now();
  PrecomputedLoss loss(scheme_ptr, dataset.value(), *measure.value(),
                       kThreads);
  layers.Set("loss.build_s", Json::Number(SecondsSince(start)));

  AnonymizerConfig config;
  config.k = k;
  config.method = AnonymizationMethod::kAgglomerative;
  config.distance = distance.value();
  config.num_threads = kThreads;
  start = Clock::now();
  Result<AnonymizationResult> result =
      Anonymize(dataset.value(), loss, config);
  if (!result.ok()) return Fail("anonymize", result.status());
  layers.Set("algo.anonymize_s", Json::Number(SecondsSince(start)));

  start = Clock::now();
  Result<bool> verified = SatisfiesNotion(AnonymityNotion::kKAnonymity,
                                          dataset.value(), result->table, k);
  if (!verified.ok()) return Fail("verify", verified.status());
  layers.Set("anonymity.verify_s", Json::Number(SecondsSince(start)));
  if (!verified.value()) {
    std::fprintf(stderr, "layer_probe: k-anonymity VIOLATED\n");
    return 1;
  }

  start = Clock::now();
  if (Status s = WriteGeneralizedCsvFile(result->table, output); !s.ok()) {
    return Fail("write " + output, s);
  }
  layers.Set("generalization.write_s", Json::Number(SecondsSince(start)));

  Json out = Json::Object();
  out.Set("layers", std::move(layers));
  out.Set("counters", CountersJson(result.value()));
  out.Set("loss", Json::Number(result->loss));
  out.Set("rows", Json::Number(static_cast<int64_t>(dataset->num_rows())));
  out.Set("degraded", Json::Bool(result->degraded));

  if (extras) {
    Json more = Json::Object();
    start = Clock::now();
    const BipartiteGraph graph =
        BuildConsistencyGraph(dataset.value(), result->table);
    more.Set("graph.build_s", Json::Number(SecondsSince(start)));
    more.Set("graph.edges",
             Json::Number(static_cast<int64_t>(graph.num_edges())));
    start = Clock::now();
    Result<MatchableEdgeSets> matchable = ComputeMatchableEdges(graph);
    if (!matchable.ok()) return Fail("matchable edges", matchable.status());
    more.Set("graph.matchable_s", Json::Number(SecondsSince(start)));

    AnonymizerConfig other = config;
    other.num_threads = kCompareThreads;
    start = Clock::now();
    Result<AnonymizationResult> other_result =
        Anonymize(dataset.value(), loss, other);
    if (!other_result.ok()) {
      return Fail("anonymize at two threads", other_result.status());
    }
    more.Set("algo.anonymize_2t_s", Json::Number(SecondsSince(start)));
    more.Set("identical_compare", Json::Bool(CsvBytes(other_result->table) ==
                                             CsvBytes(result->table)));
    out.Set("extras", std::move(more));
  }
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

int RealMain(int argc, char** argv) {
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "layer_probe: %s\n", s.ToString().c_str());
    return 2;
  }
  if (flags.Has("preflight")) {
    return Preflight(flags.GetString("preflight", ""));
  }
  if (flags.Has("setup-reps")) {
    return SetupReps(flags, flags.GetInt("setup-reps", 1));
  }
  return Job(flags, flags.GetBool("extras", false));
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::RealMain(argc, argv); }
