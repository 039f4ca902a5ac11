// APT-style package model (paper §2).
//
// A package is the smallest installation unit: it carries binaries
// (executables and shared libraries) and depends on other packages. The
// repository validates dependency edges and answers closure queries, which
// the metrics core needs for weighted completeness ("if a supported package
// depends on an unsupported package, both are unsupported").

#ifndef LAPIS_SRC_PACKAGE_REPOSITORY_H_
#define LAPIS_SRC_PACKAGE_REPOSITORY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace lapis::package {

using PackageId = uint32_t;
inline constexpr PackageId kInvalidPackage = 0xffffffffu;

// How a package's programs are written (drives the Fig 1 breakdown and the
// interpreter over-approximation of §2.3).
enum class ProgramKind : uint8_t {
  kElf,           // native executables / shared libraries
  kShellDash,     // #!/bin/sh scripts
  kShellBash,     // #!/bin/bash scripts
  kPython,
  kPerl,
  kRuby,
  kOtherInterpreted,
};

const char* ProgramKindName(ProgramKind kind);

struct Package {
  std::string name;
  ProgramKind kind = ProgramKind::kElf;
  // Interpreted programs shipped (scripts are not ELF; they count toward
  // the Fig 1 executable breakdown only).
  size_t script_count = 0;
  // Direct APT dependencies (package names resolved to ids by Repository).
  std::vector<PackageId> depends;
  // For interpreted packages: the package providing the interpreter.
  PackageId interpreter = kInvalidPackage;
};

class Repository {
 public:
  // Adds a package; name must be unique. Dependencies may reference ids
  // returned by earlier AddPackage calls only.
  Result<PackageId> AddPackage(Package package);

  size_t size() const { return packages_.size(); }
  const Package& package(PackageId id) const { return packages_[id]; }
  const std::vector<Package>& packages() const { return packages_; }

  // kInvalidPackage if absent.
  PackageId FindByName(std::string_view name) const;

  // Transitive dependency closure including `id` itself (cycle-safe;
  // interpreter edges are treated as dependencies).
  std::vector<PackageId> DependencyClosure(PackageId id) const;

  // Packages whose closure includes `id` (including `id` itself).
  std::vector<PackageId> ReverseDependencyClosure(PackageId id) const;

 private:
  std::vector<Package> packages_;
  std::map<std::string, PackageId, std::less<>> by_name_;
};

}  // namespace lapis::package

#endif  // LAPIS_SRC_PACKAGE_REPOSITORY_H_
