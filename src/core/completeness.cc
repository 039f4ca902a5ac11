#include "src/core/completeness.h"

#include <algorithm>

namespace lapis::core {

namespace {

bool KindEvaluated(const CompletenessOptions& options, ApiKind kind) {
  return options.evaluated_kinds.empty() ||
         options.evaluated_kinds.contains(kind);
}

// Dependency poisoning and install weighting over a per-package
// "self-supported" vector: a package is supported iff every member of its
// dependency closure is self-supported. Returns the weighted completeness,
// summed in package-id order so it is bit-reproducible. A non-null
// `supported_packages` (sized to the package count) receives each flag.
double PoisonAndWeigh(const StudyDataset& dataset,
                      const std::vector<bool>& self_ok,
                      std::vector<bool>* supported_packages) {
  double supported_weight = 0.0;
  double total_weight = 0.0;
  for (PackageId id = 0; id < dataset.package_count(); ++id) {
    double p = dataset.InstallProbability(id);
    total_weight += p;
    bool ok = true;
    for (PackageId member : dataset.DependencyClosure(id)) {
      if (!self_ok[member]) {
        ok = false;
        break;
      }
    }
    if (supported_packages != nullptr) {
      (*supported_packages)[id] = ok;
    }
    if (ok) {
      supported_weight += p;
    }
  }
  if (total_weight == 0.0) {
    return 0.0;
  }
  return supported_weight / total_weight;
}

}  // namespace

SupportEvaluation EvaluateSupport(const StudyDataset& dataset,
                                  const std::set<ApiId>& supported,
                                  const CompletenessOptions& options) {
  std::vector<bool> self_ok(dataset.package_count(), true);
  for (PackageId id = 0; id < dataset.package_count(); ++id) {
    for (const ApiId& api : dataset.Footprint(id)) {
      if (!KindEvaluated(options, api.kind)) {
        continue;
      }
      if (supported.find(api) == supported.end()) {
        self_ok[id] = false;
        break;
      }
    }
  }
  SupportEvaluation result;
  result.supported_packages.resize(dataset.package_count());
  result.weighted_completeness =
      PoisonAndWeigh(dataset, self_ok, &result.supported_packages);
  return result;
}

std::vector<bool> SupportedPackages(const StudyDataset& dataset,
                                    const std::set<ApiId>& supported,
                                    const CompletenessOptions& options) {
  return EvaluateSupport(dataset, supported, options).supported_packages;
}

double WeightedCompleteness(const StudyDataset& dataset,
                            const std::set<ApiId>& supported,
                            const CompletenessOptions& options) {
  return EvaluateSupport(dataset, supported, options).weighted_completeness;
}

std::vector<PathPoint> GreedyCompletenessPath(
    const StudyDataset& dataset, ApiKind kind,
    const std::vector<ApiId>& universe) {
  return GreedyCompletenessPathMultiKind(dataset, {kind}, universe);
}

std::vector<PathPoint> GreedyCompletenessPathMultiKind(
    const StudyDataset& dataset, const std::set<ApiKind>& kinds,
    const std::vector<ApiId>& universe) {
  // Merge the per-kind rankings into one importance-ordered list. Each
  // ranking is already in this order, so a single kind stays as ranked.
  // Scores are computed once per API, not once per comparison.
  struct Ranked {
    double importance;
    double unweighted;
    ApiId api;
  };
  std::vector<Ranked> order;
  for (ApiKind kind : kinds) {
    for (const ApiId& api : dataset.RankByImportance(kind, universe)) {
      order.push_back(Ranked{dataset.ApiImportance(api),
                             dataset.UnweightedImportance(api), api});
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Ranked& a, const Ranked& b) {
                     if (a.importance != b.importance) {
                       return a.importance > b.importance;
                     }
                     if (a.unweighted != b.unweighted) {
                       return a.unweighted > b.unweighted;
                     }
                     return a.api < b.api;
                   });

  // missing[pkg] = number of footprint APIs of `kinds` not yet supported.
  std::vector<uint32_t> missing(dataset.package_count(), 0);
  for (PackageId id = 0; id < dataset.package_count(); ++id) {
    for (const ApiId& api : dataset.Footprint(id)) {
      if (kinds.contains(api.kind)) {
        ++missing[id];
      }
    }
  }

  std::vector<PathPoint> path;
  path.reserve(order.size());
  std::vector<bool> self_ok(dataset.package_count());
  for (const Ranked& ranked : order) {
    for (PackageId pkg : dataset.Dependents(ranked.api)) {
      --missing[pkg];
    }
    for (PackageId id = 0; id < dataset.package_count(); ++id) {
      self_ok[id] = missing[id] == 0;
    }
    PathPoint point;
    point.api = ranked.api;
    point.importance = ranked.importance;
    point.weighted_completeness = PoisonAndWeigh(dataset, self_ok, nullptr);
    path.push_back(point);
  }
  return path;
}

std::vector<Stage> DecomposeStages(const std::vector<PathPoint>& path,
                                   const std::vector<double>& thresholds,
                                   double baseline) {
  std::vector<Stage> stages;
  size_t cursor = 0;
  for (double raw_threshold : thresholds) {
    double threshold = std::min(1.0, raw_threshold + baseline);
    while (cursor < path.size() &&
           path[cursor].weighted_completeness + 1e-12 < threshold) {
      ++cursor;
    }
    Stage stage;
    stage.threshold = raw_threshold;
    if (cursor < path.size()) {
      stage.cumulative_apis = cursor + 1;
      stage.weighted_completeness = path[cursor].weighted_completeness;
    } else {
      stage.cumulative_apis = path.size();
      stage.weighted_completeness =
          path.empty() ? 0.0 : path.back().weighted_completeness;
    }
    stages.push_back(stage);
  }
  return stages;
}

std::vector<ApiId> SuggestNextApis(const StudyDataset& dataset,
                                   const std::set<ApiId>& supported,
                                   ApiKind kind, size_t count) {
  std::vector<ApiId> suggestions;
  for (const ApiId& api : dataset.RankByImportance(kind)) {
    if (supported.find(api) == supported.end()) {
      suggestions.push_back(api);
      if (suggestions.size() >= count) {
        break;
      }
    }
  }
  return suggestions;
}

}  // namespace lapis::core
