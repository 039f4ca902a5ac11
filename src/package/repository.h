// APT-style package model (paper §2).
//
// A package is the smallest installation unit: it carries binaries
// (executables and shared libraries) and depends on other packages. The
// repository validates dependency edges. DependencyClosures turns direct
// edges into every package's closure, held in one ClosureTable: the popcon
// survey installs a package with its closure (§2.2), and the metrics core
// (StudyDataset) builds the same table for weighted completeness ("if a
// supported package depends on an unsupported package, both are
// unsupported", §A.2).

#ifndef LAPIS_SRC_PACKAGE_REPOSITORY_H_
#define LAPIS_SRC_PACKAGE_REPOSITORY_H_

#include <cstdint>
#include <map>
#include <span>
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

// Every package's dependency closure in one CSR array: package p's closure
// is members[begin[p], begin[p + 1]), p first, then the rest in
// breadth-first discovery order, each once.
struct ClosureTable {
  std::vector<size_t> begin;
  std::vector<PackageId> members;

  std::span<const PackageId> Of(PackageId id) const {
    return std::span<const PackageId>(members).subspan(
        begin[id], begin[id + 1] - begin[id]);
  }
};

// The closures of the graph whose package p depends directly on edges[p]
// (every id below edges.size(); cycles, self loops and repeated edges
// allowed).
ClosureTable DependencyClosures(
    const std::vector<std::vector<PackageId>>& edges);

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

  // Each package's direct dependency edges: its depends, then its
  // interpreter. Installing a script package installs its interpreter, so
  // the interpreter counts as a dependency.
  std::vector<std::vector<PackageId>> DependencyEdges() const;

  // DependencyClosures over DependencyEdges(), built on each call. Hold
  // the table: a span from a temporary's Of() dangles.
  ClosureTable Closures() const;

 private:
  std::vector<Package> packages_;
  std::map<std::string, PackageId, std::less<>> by_name_;
};

}  // namespace lapis::package

#endif  // LAPIS_SRC_PACKAGE_REPOSITORY_H_
