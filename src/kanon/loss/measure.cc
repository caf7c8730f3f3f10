#include "kanon/loss/measure.h"

#include "kanon/common/name_table.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/lm_measure.h"
#include "kanon/loss/suppression_measure.h"
#include "kanon/loss/tree_measure.h"

namespace kanon {

std::vector<std::unique_ptr<LossMeasure>> AllMeasures() {
  std::vector<std::unique_ptr<LossMeasure>> measures;
  measures.push_back(std::make_unique<EntropyMeasure>());
  measures.push_back(std::make_unique<LmMeasure>());
  measures.push_back(std::make_unique<TreeMeasure>());
  measures.push_back(std::make_unique<SuppressionMeasure>());
  return measures;
}

Result<std::unique_ptr<LossMeasure>> MakeMeasure(const std::string& name) {
  for (std::unique_ptr<LossMeasure>& measure : AllMeasures()) {
    if (measure->name() == name) return std::move(measure);
  }
  return UnknownName("measure", name);
}

}  // namespace kanon
