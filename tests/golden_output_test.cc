// Golden-output equivalence suite for the algo/core refactor: every
// pipeline × loss measure × testdata set must keep publishing the exact
// table the pre-refactor engines produced, at every thread count. The
// golden tables under tests/testdata/golden/ were captured from the
// pre-core engines; ReadGeneralizedCsv round-trips are exact, so a cell-wise
// table comparison is a byte-for-byte contract.
//
// The five pipelines that never read the cluster distance (forest, both
// (k,k) variants, global (1,k) and full-domain) must also reproduce their
// golden under every DistanceFunction, so the goldens pin each of them once
// for all five distance settings.
//
// Regenerating (only legitimate when an intentional output change lands):
//   KANON_REGEN_GOLDEN=1 ./golden_output_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kanon/algo/anonymizer.h"
#include "kanon/algo/distance.h"
#include "kanon/data/csv.h"
#include "kanon/generalization/generalized_csv.h"
#include "kanon/generalization/scheme_spec.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/lm_measure.h"
#include "test_util.h"

#ifndef KANON_TESTDATA_DIR
#error "KANON_TESTDATA_DIR must point at tests/testdata"
#endif

namespace kanon {
namespace {

using testing::SmallRandomDataset;
using testing::SmallScheme;
using testing::Unwrap;

struct GoldenCase {
  std::string name;  // Dataset tag used in the golden file name.
  std::shared_ptr<const GeneralizationScheme> scheme;
  Dataset dataset;
  size_t k;
};

std::vector<GoldenCase> AllCases() {
  std::vector<GoldenCase> cases;
  {
    auto scheme = SmallScheme();
    Dataset d = SmallRandomDataset(*scheme, 150, 20250807);
    cases.push_back({"small", scheme, std::move(d), 5});
  }
  {
    const std::string dir = KANON_TESTDATA_DIR;
    Dataset d = Unwrap(ReadCsvInferSchemaFile(dir + "/demo.csv"));
    auto scheme = std::make_shared<const GeneralizationScheme>(
        Unwrap(ParseSchemeSpecFile(d.schema(), dir + "/demo.spec")));
    cases.push_back({"demo", scheme, std::move(d), 2});
  }
  return cases;
}

// The pipelines that rank candidates by plain closure cost; only the
// agglomerative methods read AnonymizerConfig::distance.
constexpr AnonymizationMethod kDistanceBlindMethods[] = {
    AnonymizationMethod::kForest,
    AnonymizationMethod::kKKNearestNeighbors,
    AnonymizationMethod::kKKGreedyExpansion,
    AnonymizationMethod::kGlobal,
    AnonymizationMethod::kFullDomain,
};

std::string GoldenPath(const std::string& dataset, AnonymizationMethod method,
                       const std::string& measure) {
  return std::string(KANON_TESTDATA_DIR) + "/golden/" + dataset + "_" +
         AnonymizationMethodName(method) + "_" + measure + ".csv";
}

std::vector<std::pair<std::string, std::unique_ptr<LossMeasure>>>
AllMeasures() {
  std::vector<std::pair<std::string, std::unique_ptr<LossMeasure>>> m;
  m.emplace_back("EM", std::make_unique<EntropyMeasure>());
  m.emplace_back("LM", std::make_unique<LmMeasure>());
  return m;
}

TEST(GoldenOutputTest, EveryPipelineReproducesPreRefactorTables) {
  const bool regen = std::getenv("KANON_REGEN_GOLDEN") != nullptr;
  const std::vector<GoldenCase> cases = AllCases();
  for (const GoldenCase& c : cases) {
    for (const auto& [measure_name, measure] : AllMeasures()) {
      const PrecomputedLoss loss(c.scheme, c.dataset, *measure);
      for (AnonymizationMethod method : kAllMethods) {
        const std::string path = GoldenPath(c.name, method, measure_name);
        AnonymizerConfig config;
        config.k = c.k;
        config.method = method;
        if (regen) {
          config.num_threads = 1;
          const AnonymizationResult result =
              Unwrap(Anonymize(c.dataset, loss, config));
          ASSERT_TRUE(WriteGeneralizedCsvFile(result.table, path).ok())
              << path;
          continue;
        }
        const GeneralizedTable golden =
            Unwrap(ReadGeneralizedCsvFile(c.scheme, path));
        for (int threads : {1, 2, 4}) {
          config.num_threads = threads;
          const AnonymizationResult result =
              Unwrap(Anonymize(c.dataset, loss, config));
          EXPECT_TRUE(result.table == golden)
              << c.name << "/" << AnonymizationMethodName(method) << "/"
              << measure_name << " diverged from the pre-refactor golden at "
              << "--threads " << threads;
        }
      }
    }
  }
}

TEST(GoldenOutputTest, DistanceBlindPipelinesMatchGoldenUnderEveryDistance) {
  for (const GoldenCase& c : AllCases()) {
    for (const auto& [measure_name, measure] : AllMeasures()) {
      const PrecomputedLoss loss(c.scheme, c.dataset, *measure);
      for (AnonymizationMethod method : kDistanceBlindMethods) {
        const GeneralizedTable golden = Unwrap(ReadGeneralizedCsvFile(
            c.scheme, GoldenPath(c.name, method, measure_name)));
        for (DistanceFunction distance : kAllDistanceFunctions) {
          for (int threads : {1, 2, 4}) {
            AnonymizerConfig config;
            config.k = c.k;
            config.method = method;
            config.distance = distance;
            config.num_threads = threads;
            const AnonymizationResult result =
                Unwrap(Anonymize(c.dataset, loss, config));
            EXPECT_TRUE(result.table == golden)
                << c.name << "/" << AnonymizationMethodName(method) << "/"
                << measure_name << " diverged from its golden under "
                << DistanceFunctionName(distance) << " at --threads "
                << threads;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace kanon
