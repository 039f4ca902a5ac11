// StudyDataset: the joined measurement data (paper §2, Appendix A).
//
// Combines, per package: the API footprint (from static analysis), the
// installation count (from the popularity-contest survey), and the APT
// dependency edges. All metrics — API importance, unweighted API importance,
// weighted completeness — are computed from this one structure.

#ifndef LAPIS_SRC_CORE_DATASET_H_
#define LAPIS_SRC_CORE_DATASET_H_

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/api_id.h"
#include "src/package/repository.h"
#include "src/util/status.h"

namespace lapis::core {

using PackageId = uint32_t;

class StudyDataset {
 public:
  StudyDataset(size_t package_count, uint64_t total_installations);

  // ---- Construction ----
  Status SetPackageName(PackageId id, std::string name);
  Status SetInstallCount(PackageId id, uint64_t count);
  Status SetFootprint(PackageId id, std::vector<ApiId> footprint);
  // Direct dependency edges (closure is computed in Finalize).
  Status SetDependencies(PackageId id, std::vector<PackageId> depends);
  // Numbers the used APIs, stores the footprints as dense ids, and builds
  // the dependents index and dependency closures. It or FinalizeDense must
  // be called before any query; construction calls afterwards are rejected.
  Status Finalize();
  // Finalize for footprints that are already dense (a saved dataset), in
  // place of SetFootprint + Finalize: `used_apis` strictly ascending, and
  // package p's ids footprint_ids[footprint_begin[p], footprint_begin[p + 1])
  // strictly ascending below used_apis.size(). Skips the numbering and
  // builds the same indexes. Offsets that do not cover the ids, an id out
  // of range or out of order, an unsorted table, or a used API no footprint
  // names is InvalidArgument.
  Status FinalizeDense(std::vector<ApiId> used_apis,
                       std::vector<uint32_t> footprint_begin,
                       std::vector<uint32_t> footprint_ids);

  // ---- Basic accessors ----
  size_t package_count() const { return names_.size(); }
  uint64_t total_installations() const { return total_installations_; }
  const std::string& PackageName(PackageId id) const { return names_[id]; }
  PackageId FindPackage(std::string_view name) const;  // UINT32_MAX if absent
  double InstallProbability(PackageId id) const;
  uint64_t InstallCount(PackageId id) const { return install_counts_[id]; }
  // The package's footprint as dense API ids (see UsedApis), ascending,
  // which is ApiId order. Empty until finalized.
  std::span<const uint32_t> Footprint(PackageId id) const {
    return std::span<const uint32_t>(footprint_ids_)
        .subspan(footprint_begin_[id],
                 footprint_begin_[id + 1] - footprint_begin_[id]);
  }
  // The package and its transitive dependencies, breadth-first from it.
  std::span<const PackageId> DependencyClosure(PackageId id) const {
    return closures_.Of(id);
  }
  // The direct dependency edges as set (closure is derived in Finalize).
  const std::vector<PackageId>& DirectDependencies(PackageId id) const {
    return depends_[id];
  }
  bool finalized() const { return finalized_; }

  // ---- Metrics ----
  // Every API appearing in at least one footprint, sorted. An API's
  // position here is its dense id.
  const std::vector<ApiId>& UsedApis() const { return used_apis_; }

  // The dense ids [begin, end) of `kind`'s used APIs: UsedApis() sorts by
  // kind first, so each kind fills one range.
  std::pair<uint32_t, uint32_t> KindRange(ApiKind kind) const {
    const auto k = static_cast<size_t>(kind);
    return {kind_begin_[k], kind_begin_[k + 1]};
  }

  // Packages whose footprint contains UsedApis()[dense] (paper:
  // Dependents(api)), in package order.
  std::span<const PackageId> DependentsAt(uint32_t dense) const {
    return std::span<const PackageId>(dependents_)
        .subspan(dependents_begin_[dense],
                 dependents_begin_[dense + 1] - dependents_begin_[dense]);
  }
  // The same by ApiId; empty for an API no footprint uses.
  std::span<const PackageId> Dependents(ApiId api) const;

  // API importance (§A.1): probability a random installation contains at
  // least one package requiring `api`, assuming independent installs:
  //   1 - prod_{pkg in dependents} (1 - p_pkg)
  double ApiImportance(ApiId api) const;

  // Unweighted API importance (§5): fraction of packages using `api`.
  double UnweightedImportance(ApiId api) const;

  // APIs of `kind` ranked by descending importance (stable tie-break on
  // code). `universe` may add zero-importance APIs absent from footprints.
  std::vector<ApiId> RankByImportance(
      ApiKind kind, const std::vector<ApiId>& universe = {}) const;
  // The same over several kinds, merged into one order.
  std::vector<ApiId> RankByImportance(
      const std::set<ApiKind>& kinds, const std::vector<ApiId>& universe) const;
  std::vector<ApiId> RankByUnweightedImportance(
      ApiKind kind, const std::vector<ApiId>& universe = {}) const;

  // Count of distinct / unique footprints among packages with non-empty
  // footprints (paper §6: 11,680 distinct, 9,133 unique of 31,433).
  struct FootprintUniqueness {
    size_t packages_with_footprint = 0;
    size_t distinct = 0;
    size_t unique = 0;
  };
  FootprintUniqueness ComputeFootprintUniqueness() const;

 private:
  Status CheckConstruction(PackageId id);
  // The part of finalizing that both entries share: kind ranges, the
  // dependents index from its counts (dependents_begin_[d + 1] holds dense
  // id d's), closures and the name index.
  void BuildIndexes();

  uint64_t total_installations_;
  bool finalized_ = false;
  std::vector<std::string> names_;
  std::map<std::string, PackageId, std::less<>> by_name_;
  std::vector<uint64_t> install_counts_;
  // Footprints as set, until Finalize numbers them and releases these.
  std::vector<std::vector<ApiId>> footprints_;
  std::vector<std::vector<PackageId>> depends_;
  // Dependency closures (CSR), built from depends_ by DependencyClosures.
  package::ClosureTable closures_;
  // The dense numbering: used_apis_[d] is dense id d, and kind k's ids are
  // [kind_begin_[k], kind_begin_[k + 1]).
  std::vector<ApiId> used_apis_;
  std::array<uint32_t, kApiKindCount + 1> kind_begin_{};
  // Footprints (CSR): package p's dense ids are
  // footprint_ids_[footprint_begin_[p], footprint_begin_[p + 1]).
  std::vector<uint32_t> footprint_begin_;
  std::vector<uint32_t> footprint_ids_;
  // Dependents index (CSR), the footprints' transpose: the dependents of
  // dense id d are dependents_[dependents_begin_[d], dependents_begin_[d + 1]).
  std::vector<uint32_t> dependents_begin_;
  std::vector<PackageId> dependents_;
};

}  // namespace lapis::core

#endif  // LAPIS_SRC_CORE_DATASET_H_
