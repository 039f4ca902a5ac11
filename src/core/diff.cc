#include "src/core/diff.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace lapis::core {

DatasetDiff CompareDatasets(const StudyDataset& before,
                            const StudyDataset& after,
                            const DiffOptions& options) {
  DatasetDiff diff;
  for (ApiKind kind : options.kinds) {
    std::set<ApiId> universe;
    for (const StudyDataset* dataset : {&before, &after}) {
      const auto [begin, end] = dataset->KindRange(kind);
      universe.insert(dataset->UsedApis().begin() + begin,
                      dataset->UsedApis().begin() + end);
    }
    for (const ApiId& api : universe) {
      ++diff.apis_compared;
      bool used_before = !before.Dependents(api).empty();
      bool used_after = !after.Dependents(api).empty();
      if (!used_before && used_after) {
        diff.appeared.push_back(api);
      } else if (used_before && !used_after) {
        diff.vanished.push_back(api);
      }
      ApiDelta delta;
      delta.api = api;
      delta.importance_before = before.ApiImportance(api);
      delta.importance_after = after.ApiImportance(api);
      delta.unweighted_before = before.UnweightedImportance(api);
      delta.unweighted_after = after.UnweightedImportance(api);
      double shift = options.unweighted
                         ? std::abs(delta.UnweightedShift())
                         : std::abs(delta.ImportanceShift());
      if (shift >= options.min_shift) {
        diff.moved.push_back(delta);
      }
    }
  }
  std::stable_sort(diff.moved.begin(), diff.moved.end(),
                   [&options](const ApiDelta& a, const ApiDelta& b) {
                     double sa = options.unweighted
                                     ? std::abs(a.UnweightedShift())
                                     : std::abs(a.ImportanceShift());
                     double sb = options.unweighted
                                     ? std::abs(b.UnweightedShift())
                                     : std::abs(b.ImportanceShift());
                     return sa > sb;
                   });
  return diff;
}

}  // namespace lapis::core
