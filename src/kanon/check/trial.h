#ifndef KANON_CHECK_TRIAL_H_
#define KANON_CHECK_TRIAL_H_

#include <memory>
#include <string>
#include <vector>

#include "kanon/algo/anonymizer.h"
#include "kanon/check/generators.h"
#include "kanon/common/result.h"
#include "kanon/data/dataset.h"
#include "kanon/generalization/scheme.h"
#include "kanon/loss/measure.h"

namespace kanon {
namespace check {

/// Configuration of one randomized trial. Together with the instance in
/// TrialData this fully determines every property evaluation: no property
/// draws randomness of its own except through config.seed substreams.
struct TrialConfig {
  /// The campaign seed and this trial's index; the trial's own randomness
  /// (e.g. which rows a metamorphic transform coarsens) comes from
  /// Rng(seed).Fork(trial_index) substreams.
  uint64_t seed = 0;
  size_t trial_index = 0;
  size_t k = 2;
  /// Loss measure name: EM, LM, or SUP.
  std::string measure = "EM";
  DistanceFunction distance = DistanceFunction::kRatio;
  /// The pipelines this trial exercises. Properties iterate these; the
  /// shrinker narrows the list to the failing one.
  std::vector<AnonymizationMethod> methods;
};

/// One materialized trial: configuration + generated instance.
struct TrialData {
  TrialConfig config;
  std::shared_ptr<const GeneralizationScheme> scheme;
  Dataset dataset;

  size_t num_rows() const { return dataset.num_rows(); }
  size_t num_attributes() const { return dataset.num_attributes(); }
};

/// All seven pipelines, in the canonical (enum) order.
const std::vector<AnonymizationMethod>& AllMethods();

/// CLI-style short method names ("agglomerative", "modified", "forest",
/// "kk-nn", "kk-greedy", "global", "full-domain") — the vocabulary of
/// --props filters and .repro files.
const char* MethodShortName(AnonymizationMethod method);
Result<AnonymizationMethod> ParseMethodShortName(const std::string& name);

/// Distance-function names ("1".."4", "nc"), as in kanon_cli --distance.
const char* DistanceName(DistanceFunction distance);
Result<DistanceFunction> ParseDistanceName(const std::string& name);

/// Loss measure by name: EM, LM, or SUP.
Result<std::unique_ptr<LossMeasure>> MakeMeasure(const std::string& name);

/// Materializes trial `trial_index` of a campaign: generator substream
/// Rng(campaign_seed).Fork(trial_index), so trials are order-independent
/// and any single trial can be regenerated without replaying the others.
Result<TrialData> MakeTrial(uint64_t campaign_seed, size_t trial_index,
                            const GeneratorOptions& options);

}  // namespace check
}  // namespace kanon

#endif  // KANON_CHECK_TRIAL_H_
