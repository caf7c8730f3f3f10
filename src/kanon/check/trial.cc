#include "kanon/check/trial.h"

#include <algorithm>
#include <utility>

#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/lm_measure.h"
#include "kanon/loss/suppression_measure.h"

namespace kanon {
namespace check {

const std::vector<AnonymizationMethod>& AllMethods() {
  static const std::vector<AnonymizationMethod> methods = {
      AnonymizationMethod::kAgglomerative,
      AnonymizationMethod::kModifiedAgglomerative,
      AnonymizationMethod::kForest,
      AnonymizationMethod::kKKNearestNeighbors,
      AnonymizationMethod::kKKGreedyExpansion,
      AnonymizationMethod::kGlobal,
      AnonymizationMethod::kFullDomain,
  };
  return methods;
}

const char* MethodShortName(AnonymizationMethod method) {
  switch (method) {
    case AnonymizationMethod::kAgglomerative:
      return "agglomerative";
    case AnonymizationMethod::kModifiedAgglomerative:
      return "modified";
    case AnonymizationMethod::kForest:
      return "forest";
    case AnonymizationMethod::kKKNearestNeighbors:
      return "kk-nn";
    case AnonymizationMethod::kKKGreedyExpansion:
      return "kk-greedy";
    case AnonymizationMethod::kGlobal:
      return "global";
    case AnonymizationMethod::kFullDomain:
      return "full-domain";
  }
  return "unknown";
}

Result<AnonymizationMethod> ParseMethodShortName(const std::string& name) {
  for (AnonymizationMethod method : AllMethods()) {
    if (name == MethodShortName(method)) return method;
  }
  return Status::InvalidArgument("unknown method '" + name + "'");
}

const char* DistanceName(DistanceFunction distance) {
  switch (distance) {
    case DistanceFunction::kWeighted:
      return "1";
    case DistanceFunction::kPlain:
      return "2";
    case DistanceFunction::kLogWeighted:
      return "3";
    case DistanceFunction::kRatio:
      return "4";
    case DistanceFunction::kNergizClifton:
      return "nc";
  }
  return "unknown";
}

Result<DistanceFunction> ParseDistanceName(const std::string& name) {
  for (DistanceFunction distance :
       {DistanceFunction::kWeighted, DistanceFunction::kPlain,
        DistanceFunction::kLogWeighted, DistanceFunction::kRatio,
        DistanceFunction::kNergizClifton}) {
    if (name == DistanceName(distance)) return distance;
  }
  return Status::InvalidArgument("unknown distance '" + name + "'");
}

Result<std::unique_ptr<LossMeasure>> MakeMeasure(const std::string& name) {
  std::unique_ptr<LossMeasure> measure;
  if (name == "EM") measure = std::make_unique<EntropyMeasure>();
  if (name == "LM") measure = std::make_unique<LmMeasure>();
  if (name == "SUP") measure = std::make_unique<SuppressionMeasure>();
  if (measure == nullptr) {
    return Status::InvalidArgument("unknown measure '" + name + "'");
  }
  return measure;
}

Result<TrialData> MakeTrial(uint64_t campaign_seed, size_t trial_index,
                            const GeneratorOptions& options) {
  // The trial's substream depends only on (campaign seed, index): trials
  // regenerate identically whatever order — or thread — they run in.
  Rng rng = Rng(campaign_seed).Fork(static_cast<uint64_t>(trial_index));

  Rng instance_rng = rng.Fork(std::string_view("instance"));
  KANON_ASSIGN_OR_RETURN(GeneratedInstance instance,
                         GenerateInstance(options, &instance_rng));

  Rng config_rng = rng.Fork(std::string_view("config"));
  TrialData data{TrialConfig{}, std::move(instance.scheme),
                 std::move(instance.dataset)};
  data.config.seed = campaign_seed;
  data.config.trial_index = trial_index;
  data.config.k = static_cast<size_t>(config_rng.NextInt(1, 6));

  const char* kMeasures[] = {"EM", "LM", "SUP"};
  data.config.measure = kMeasures[config_rng.NextBounded(3)];

  const DistanceFunction kDistances[] = {
      DistanceFunction::kWeighted, DistanceFunction::kPlain,
      DistanceFunction::kLogWeighted, DistanceFunction::kRatio,
      DistanceFunction::kNergizClifton};
  data.config.distance = kDistances[config_rng.NextBounded(5)];

  // Every trial exercises every pipeline: the instances are small enough
  // that running all seven costs little, and cross-pipeline properties
  // (differential oracles) need several outputs anyway.
  data.config.methods = AllMethods();
  return data;
}

}  // namespace check
}  // namespace kanon
