// Digest pin of the agglomerative engine at sizes the golden suite never
// reaches. The goldens use a 150-row and an 8-row table at the default
// distance, so no golden run has an active list longer than 256 clusters or
// takes the pooled sweep path (kAgglomerativeCheapSweepSerialBelow). Here
// both agglomerative variants run on a 200-row ART table under all five
// distances at 1 and 4 threads, and the basic variant runs on a 2100-row
// table at 1 and 4 threads: at 4 the early repair sweeps and rescans fan
// out over the pool, at 1 every sweep runs on the calling thread. Each run
// must reproduce the committed FNV-1a-64 digest of its generalized CSV and
// the committed `merges`/`rescans`/`parallel_chunks` counters; digests and
// counters are the same at every thread count.
//
// Regenerating (only legitimate when an intentional output change lands):
//   KANON_REGEN_PIN=1 ./agglomerative_pin_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "kanon/algo/anonymizer.h"
#include "kanon/algo/distance.h"
#include "kanon/datasets/art.h"
#include "kanon/generalization/generalized_csv.h"
#include "kanon/loss/entropy_measure.h"
#include "test_util.h"

#ifndef KANON_TESTDATA_DIR
#error "KANON_TESTDATA_DIR must point at tests/testdata"
#endif

namespace kanon {
namespace {

using testing::Unwrap;

struct PinTable {
  const char* tag;
  size_t n;
  uint64_t seed;
  size_t k;
  std::vector<AnonymizationMethod> methods;
  std::vector<DistanceFunction> distances;
  std::vector<int> threads;
};

std::vector<PinTable> Tables() {
  return {
      {"art200", 200, 3, 5,
       {AnonymizationMethod::kAgglomerative,
        AnonymizationMethod::kModifiedAgglomerative},
       {std::begin(kAllDistanceFunctions), std::end(kAllDistanceFunctions)},
       {1, 4}},
      // dist4 is the distance that makes the newest cluster many clusters'
      // nearest, the heaviest load on the merge heap.
      {"art2100", 2100, 4, 10,
       {AnonymizationMethod::kAgglomerative},
       {DistanceFunction::kRatio},
       {1, 4}},
  };
}

std::string PinPath() {
  return std::string(KANON_TESTDATA_DIR) + "/agglomerative_pin.txt";
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// One line of the digest file:
// "<case> <fnv hex> <merges> <rescans> <parallel_chunks>".
std::string PinLine(const AnonymizationResult& result) {
  std::ostringstream csv;
  EXPECT_TRUE(WriteGeneralizedCsv(result.table, csv).ok());
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(csv.str())));
  return std::string(hex) + " " + std::to_string(result.counters.merges) +
         " " + std::to_string(result.counters.rescans) + " " +
         std::to_string(result.counters.parallel_chunks);
}

std::map<std::string, std::string> ReadPins() {
  std::map<std::string, std::string> pins;
  std::ifstream in(PinPath());
  std::string name, rest;
  while (in >> name && std::getline(in, rest)) {
    pins[name] = rest.substr(rest.find_first_not_of(' '));
  }
  return pins;
}

TEST(AgglomerativePinTest, LargeTablesReproduceCommittedDigests) {
  const bool regen = std::getenv("KANON_REGEN_PIN") != nullptr;
  const std::map<std::string, std::string> pins =
      regen ? std::map<std::string, std::string>{} : ReadPins();
  std::ostringstream regenerated;
  for (const PinTable& t : Tables()) {
    const Workload w = Unwrap(MakeArtWorkload(t.n, t.seed));
    const PrecomputedLoss loss(w.scheme, w.dataset, EntropyMeasure());
    for (AnonymizationMethod method : t.methods) {
      for (DistanceFunction distance : t.distances) {
        const std::string name = std::string(t.tag) + "/" +
                                 MethodFlagName(method) + "/" +
                                 DistanceFunctionName(distance);
        for (size_t i = 0; i < t.threads.size(); ++i) {
          const int threads = t.threads[i];
          AnonymizerConfig config;
          config.k = t.k;
          config.method = method;
          config.distance = distance;
          config.num_threads = threads;
          const std::string line =
              PinLine(Unwrap(Anonymize(w.dataset, loss, config)));
          if (regen) {
            if (i == 0) regenerated << name << " " << line << "\n";
            continue;
          }
          const auto it = pins.find(name);
          ASSERT_NE(it, pins.end()) << name << " missing from " << PinPath();
          EXPECT_EQ(line, it->second)
              << name << " diverged from its pin at --threads " << threads;
        }
      }
    }
  }
  if (regen) {
    std::ofstream out(PinPath());
    out << regenerated.str();
    ASSERT_TRUE(out.good()) << PinPath();
  }
}

}  // namespace
}  // namespace kanon
