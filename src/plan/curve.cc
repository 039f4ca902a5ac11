#include "src/plan/curve.h"

#include <algorithm>
#include <set>

#include "src/core/completeness.h"

namespace lapis::plan {

std::vector<CurvePoint> PartialSupportCurve(
    const core::StudyDataset& dataset, core::ApiKind kind,
    const std::vector<size_t>& checkpoints,
    const std::vector<core::ApiId>& universe) {
  // RankByImportance collapses duplicate universe entries into one ranked
  // slot, so a checkpoint K always means K *distinct* APIs.
  std::vector<core::ApiId> ranked = dataset.RankByImportance(kind, universe);

  core::CompletenessOptions options;
  options.evaluated_kinds = {kind};
  // One kernel call per checkpoint: it walks only the kind's used APIs.
  std::vector<CurvePoint> curve;
  curve.reserve(checkpoints.size());
  for (size_t k : checkpoints) {
    const size_t count = std::min(k, ranked.size());
    const std::set<core::ApiId> supported(
        ranked.begin(), ranked.begin() + static_cast<ptrdiff_t>(count));
    curve.push_back(CurvePoint{
        count, core::WeightedCompleteness(dataset, supported, options)});
  }
  return curve;
}

const std::vector<size_t>& IoctlCurveCheckpoints() {
  static const std::vector<size_t> kCheckpoints = {
      0, 1, 2, 5, 10, 20, 40, 47, 51, 52, 60, 100, 188, 280, 635};
  return kCheckpoints;
}

}  // namespace lapis::plan
