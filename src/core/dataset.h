// StudyDataset: the joined measurement data (paper §2, Appendix A).
//
// Combines, per package: the API footprint (from static analysis), the
// installation count (from the popularity-contest survey), and the APT
// dependency edges. All metrics — API importance, unweighted API importance,
// weighted completeness — are computed from this one structure.

#ifndef LAPIS_SRC_CORE_DATASET_H_
#define LAPIS_SRC_CORE_DATASET_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/core/api_id.h"
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
  // Builds dependents indexes and dependency closures. Must be called before
  // any query; construction calls afterwards are rejected.
  Status Finalize();

  // ---- Basic accessors ----
  size_t package_count() const { return names_.size(); }
  uint64_t total_installations() const { return total_installations_; }
  const std::string& PackageName(PackageId id) const { return names_[id]; }
  PackageId FindPackage(std::string_view name) const;  // UINT32_MAX if absent
  double InstallProbability(PackageId id) const;
  uint64_t InstallCount(PackageId id) const { return install_counts_[id]; }
  const std::vector<ApiId>& Footprint(PackageId id) const;
  const std::vector<PackageId>& DependencyClosure(PackageId id) const;
  // The direct dependency edges as set (closure is derived in Finalize).
  const std::vector<PackageId>& DirectDependencies(PackageId id) const {
    return depends_[id];
  }
  bool finalized() const { return finalized_; }

  // ---- Metrics ----
  // Packages whose footprint contains `api` (paper: Dependents(api)), in
  // package order.
  std::span<const PackageId> Dependents(ApiId api) const;

  // Every API appearing in at least one footprint, sorted.
  const std::vector<ApiId>& UsedApis() const { return used_apis_; }

  // API importance (§A.1): probability a random installation contains at
  // least one package requiring `api`, assuming independent installs:
  //   1 - prod_{pkg in dependents} (1 - p_pkg)
  double ApiImportance(ApiId api) const;

  // Unweighted API importance (§5): fraction of packages using `api`.
  double UnweightedImportance(ApiId api) const;

  // Every API of `kind` appearing in at least one footprint.
  std::vector<ApiId> ApisOfKind(ApiKind kind) const;

  // APIs of `kind` ranked by descending importance (stable tie-break on
  // code). `universe` may add zero-importance APIs absent from footprints.
  std::vector<ApiId> RankByImportance(
      ApiKind kind, const std::vector<ApiId>& universe = {}) const;
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

  uint64_t total_installations_;
  bool finalized_ = false;
  std::vector<std::string> names_;
  std::map<std::string, PackageId, std::less<>> by_name_;
  std::vector<uint64_t> install_counts_;
  std::vector<std::vector<ApiId>> footprints_;
  std::vector<std::vector<PackageId>> depends_;
  std::vector<std::vector<PackageId>> closures_;
  // Dependents index (CSR): the dependents of used_apis_[i] are
  // dependents_[dependents_begin_[i], dependents_begin_[i + 1]).
  std::vector<ApiId> used_apis_;
  std::vector<uint32_t> dependents_begin_;
  std::vector<PackageId> dependents_;
};

}  // namespace lapis::core

#endif  // LAPIS_SRC_CORE_DATASET_H_
