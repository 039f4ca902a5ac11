#include "src/core/dataset.h"

#include <algorithm>
#include <unordered_map>

namespace lapis::core {

StudyDataset::StudyDataset(size_t package_count, uint64_t total_installations)
    : total_installations_(total_installations),
      names_(package_count),
      install_counts_(package_count, 0),
      footprints_(package_count),
      depends_(package_count),
      footprint_begin_(package_count + 1, 0) {}

Status StudyDataset::CheckConstruction(PackageId id) {
  if (finalized_) {
    return FailedPreconditionError("dataset already finalized");
  }
  if (id >= names_.size()) {
    return InvalidArgumentError("package id out of range");
  }
  return Status::Ok();
}

Status StudyDataset::SetPackageName(PackageId id, std::string name) {
  LAPIS_RETURN_IF_ERROR(CheckConstruction(id));
  names_[id] = std::move(name);
  return Status::Ok();
}

Status StudyDataset::SetInstallCount(PackageId id, uint64_t count) {
  LAPIS_RETURN_IF_ERROR(CheckConstruction(id));
  if (count > total_installations_) {
    return InvalidArgumentError("install count exceeds survey size");
  }
  install_counts_[id] = count;
  return Status::Ok();
}

Status StudyDataset::SetFootprint(PackageId id, std::vector<ApiId> footprint) {
  LAPIS_RETURN_IF_ERROR(CheckConstruction(id));
  if (!std::is_sorted(footprint.begin(), footprint.end())) {
    std::sort(footprint.begin(), footprint.end());
  }
  footprint.erase(std::unique(footprint.begin(), footprint.end()),
                  footprint.end());
  footprints_[id] = std::move(footprint);
  return Status::Ok();
}

Status StudyDataset::SetDependencies(PackageId id,
                                     std::vector<PackageId> depends) {
  LAPIS_RETURN_IF_ERROR(CheckConstruction(id));
  for (PackageId dep : depends) {
    if (dep >= names_.size()) {
      return InvalidArgumentError("dependency id out of range");
    }
  }
  depends_[id] = std::move(depends);
  return Status::Ok();
}

Status StudyDataset::Finalize() {
  if (finalized_) {
    return FailedPreconditionError("dataset already finalized");
  }
  // Dense ids. A hash index numbers each footprint entry's API by first
  // sight, the few distinct APIs are sorted once, and each entry's number
  // is replaced by its API's rank: the dense id. A footprint ascends in
  // ApiId order, so its dense ids ascend too.
  std::unordered_map<int64_t, uint32_t> number_of;
  std::vector<ApiId> seen;
  size_t entries = 0;
  for (const auto& footprint : footprints_) {
    entries += footprint.size();
  }
  footprint_ids_.reserve(entries);
  for (PackageId id = 0; id < footprints_.size(); ++id) {
    for (const ApiId& api : footprints_[id]) {
      auto [it, inserted] = number_of.try_emplace(
          api.Encode(), static_cast<uint32_t>(seen.size()));
      if (inserted) {
        seen.push_back(api);
      }
      footprint_ids_.push_back(it->second);
    }
    footprint_begin_[id + 1] = static_cast<uint32_t>(footprint_ids_.size());
  }
  std::vector<std::vector<ApiId>>().swap(footprints_);
  used_apis_ = seen;
  std::sort(used_apis_.begin(), used_apis_.end());
  std::vector<uint32_t> rank(seen.size());
  for (size_t number = 0; number < seen.size(); ++number) {
    rank[number] = static_cast<uint32_t>(
        std::lower_bound(used_apis_.begin(), used_apis_.end(), seen[number]) -
        used_apis_.begin());
  }
  dependents_begin_.assign(used_apis_.size() + 1, 0);
  for (uint32_t& dense : footprint_ids_) {
    dense = rank[dense];
    ++dependents_begin_[dense + 1];
  }
  BuildIndexes();
  return Status::Ok();
}

Status StudyDataset::FinalizeDense(std::vector<ApiId> used_apis,
                                   std::vector<uint32_t> footprint_begin,
                                   std::vector<uint32_t> footprint_ids) {
  if (finalized_) {
    return FailedPreconditionError("dataset already finalized");
  }
  if (footprint_begin.size() != names_.size() + 1 ||
      footprint_begin.front() != 0 ||
      footprint_begin.back() != footprint_ids.size() ||
      !std::ranges::is_sorted(footprint_begin)) {
    return InvalidArgumentError("footprint offsets do not cover the ids");
  }
  if (std::adjacent_find(used_apis.begin(), used_apis.end(),
                         [](const ApiId& a, const ApiId& b) {
                           return !(a < b);
                         }) != used_apis.end()) {
    return InvalidArgumentError("used APIs not strictly ascending");
  }
  // One pass checks each package's ids and counts them for the transpose.
  dependents_begin_.assign(used_apis.size() + 1, 0);
  for (size_t p = 0; p < names_.size(); ++p) {
    for (uint32_t i = footprint_begin[p]; i < footprint_begin[p + 1]; ++i) {
      const uint32_t dense = footprint_ids[i];
      if (dense >= used_apis.size()) {
        return InvalidArgumentError("footprint id out of range");
      }
      if (i > footprint_begin[p] && dense <= footprint_ids[i - 1]) {
        return InvalidArgumentError("footprint ids not strictly ascending");
      }
      ++dependents_begin_[dense + 1];
    }
  }
  if (std::find(dependents_begin_.begin() + 1, dependents_begin_.end(), 0u) !=
      dependents_begin_.end()) {
    return InvalidArgumentError("a used API no footprint names");
  }
  std::vector<std::vector<ApiId>>().swap(footprints_);
  used_apis_ = std::move(used_apis);
  footprint_begin_ = std::move(footprint_begin);
  footprint_ids_ = std::move(footprint_ids);
  BuildIndexes();
  return Status::Ok();
}

void StudyDataset::BuildIndexes() {
  // A search, not a count: an API of a kind past the last (which only a
  // caller's bug can set) then lies outside every kind's range.
  for (int k = 0; k <= kApiKindCount; ++k) {
    kind_begin_[static_cast<size_t>(k)] = static_cast<uint32_t>(
        std::lower_bound(used_apis_.begin(), used_apis_.end(),
                         ApiId{static_cast<ApiKind>(k), 0}) -
        used_apis_.begin());
  }
  // Dependents index: the footprints transposed, from their counts.
  for (size_t i = 1; i < dependents_begin_.size(); ++i) {
    dependents_begin_[i] += dependents_begin_[i - 1];
  }
  dependents_.resize(footprint_ids_.size());
  std::vector<uint32_t> next(dependents_begin_.begin(),
                             dependents_begin_.end() - 1);
  for (PackageId id = 0; id < names_.size(); ++id) {
    for (uint32_t dense : Footprint(id)) {
      dependents_[next[dense]++] = id;
    }
  }
  closures_ = package::DependencyClosures(depends_);
  // Name lookup.
  for (PackageId id = 0; id < names_.size(); ++id) {
    if (!names_[id].empty()) {
      by_name_.emplace(names_[id], id);
    }
  }
  finalized_ = true;
}

PackageId StudyDataset::FindPackage(std::string_view name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? UINT32_MAX : it->second;
}

double StudyDataset::InstallProbability(PackageId id) const {
  if (total_installations_ == 0) {
    return 0.0;
  }
  return static_cast<double>(install_counts_[id]) /
         static_cast<double>(total_installations_);
}

std::span<const PackageId> StudyDataset::Dependents(ApiId api) const {
  auto it = std::lower_bound(used_apis_.begin(), used_apis_.end(), api);
  if (it == used_apis_.end() || *it != api) {
    return {};
  }
  return DependentsAt(static_cast<uint32_t>(it - used_apis_.begin()));
}

double StudyDataset::ApiImportance(ApiId api) const {
  double prob_none = 1.0;
  for (PackageId pkg : Dependents(api)) {
    prob_none *= 1.0 - InstallProbability(pkg);
  }
  return 1.0 - prob_none;
}

double StudyDataset::UnweightedImportance(ApiId api) const {
  if (names_.empty()) {
    return 0.0;
  }
  return static_cast<double>(Dependents(api).size()) /
         static_cast<double>(names_.size());
}

namespace {

std::vector<ApiId> RankHelper(const StudyDataset& dataset,
                              const std::set<ApiKind>& kinds,
                              const std::vector<ApiId>& universe,
                              bool weighted) {
  std::vector<ApiId> all;
  for (ApiKind kind : kinds) {
    const auto [begin, end] = dataset.KindRange(kind);
    all.insert(all.end(), dataset.UsedApis().begin() + begin,
               dataset.UsedApis().begin() + end);
  }
  for (const ApiId& api : universe) {
    if (kinds.contains(api.kind)) {
      all.push_back(api);
    }
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  // Primary score: the requested importance. Secondary: the other metric —
  // installations saturate the weighted importance of every widely-used API
  // at exactly 1.0 (any dependent with install probability 1 does), so ties
  // are broken by breadth of use, then by code for stability.
  struct Scored {
    double primary;
    double secondary;
    ApiId api;
  };
  std::vector<Scored> scored;
  scored.reserve(all.size());
  for (const ApiId& api : all) {
    double importance = dataset.ApiImportance(api);
    double unweighted = dataset.UnweightedImportance(api);
    if (weighted) {
      scored.push_back(Scored{importance, unweighted, api});
    } else {
      scored.push_back(Scored{unweighted, importance, api});
    }
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     if (a.primary != b.primary) {
                       return a.primary > b.primary;
                     }
                     if (a.secondary != b.secondary) {
                       return a.secondary > b.secondary;
                     }
                     return a.api < b.api;
                   });
  std::vector<ApiId> out;
  out.reserve(scored.size());
  for (const auto& entry : scored) {
    out.push_back(entry.api);
  }
  return out;
}

}  // namespace

std::vector<ApiId> StudyDataset::RankByImportance(
    ApiKind kind, const std::vector<ApiId>& universe) const {
  return RankHelper(*this, {kind}, universe, /*weighted=*/true);
}

std::vector<ApiId> StudyDataset::RankByImportance(
    const std::set<ApiKind>& kinds, const std::vector<ApiId>& universe) const {
  return RankHelper(*this, kinds, universe, /*weighted=*/true);
}

std::vector<ApiId> StudyDataset::RankByUnweightedImportance(
    ApiKind kind, const std::vector<ApiId>& universe) const {
  return RankHelper(*this, {kind}, universe, /*weighted=*/false);
}

StudyDataset::FootprintUniqueness StudyDataset::ComputeFootprintUniqueness()
    const {
  FootprintUniqueness result;
  auto less = [](std::span<const uint32_t> a, std::span<const uint32_t> b) {
    return std::ranges::lexicographical_compare(a, b);
  };
  std::map<std::span<const uint32_t>, size_t, decltype(less)> counts(less);
  for (PackageId id = 0; id < names_.size(); ++id) {
    if (Footprint(id).empty()) {
      continue;
    }
    ++result.packages_with_footprint;
    ++counts[Footprint(id)];
  }
  result.distinct = counts.size();
  for (const auto& [fp, count] : counts) {
    (void)fp;
    if (count == 1) {
      ++result.unique;
    }
  }
  return result;
}

}  // namespace lapis::core
