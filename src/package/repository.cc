#include "src/package/repository.h"

namespace lapis::package {

const char* ProgramKindName(ProgramKind kind) {
  switch (kind) {
    case ProgramKind::kElf:
      return "ELF binary";
    case ProgramKind::kShellDash:
      return "Shell (dash)";
    case ProgramKind::kShellBash:
      return "Shell (bash)";
    case ProgramKind::kPython:
      return "Python";
    case ProgramKind::kPerl:
      return "Perl";
    case ProgramKind::kRuby:
      return "Ruby";
    case ProgramKind::kOtherInterpreted:
      return "Others";
  }
  return "?";
}

Result<PackageId> Repository::AddPackage(Package package) {
  if (package.name.empty()) {
    return InvalidArgumentError("package name must not be empty");
  }
  if (by_name_.contains(package.name)) {
    return FailedPreconditionError("duplicate package: " + package.name);
  }
  PackageId id = static_cast<PackageId>(packages_.size());
  for (PackageId dep : package.depends) {
    if (dep >= id) {
      return InvalidArgumentError("dependency id out of range in " +
                                  package.name);
    }
  }
  if (package.interpreter != kInvalidPackage && package.interpreter >= id) {
    return InvalidArgumentError("interpreter id out of range in " +
                                package.name);
  }
  by_name_.emplace(package.name, id);
  packages_.push_back(std::move(package));
  return id;
}

PackageId Repository::FindByName(std::string_view name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidPackage : it->second;
}

std::vector<std::vector<PackageId>> Repository::DependencyEdges() const {
  std::vector<std::vector<PackageId>> edges(packages_.size());
  for (PackageId id = 0; id < packages_.size(); ++id) {
    const Package& pkg = packages_[id];
    edges[id] = pkg.depends;
    if (pkg.interpreter != kInvalidPackage) {
      edges[id].push_back(pkg.interpreter);
    }
  }
  return edges;
}

ClosureTable Repository::Closures() const {
  return DependencyClosures(DependencyEdges());
}

ClosureTable DependencyClosures(
    const std::vector<std::vector<PackageId>>& edges) {
  const size_t n = edges.size();
  ClosureTable table;
  table.begin.reserve(n + 1);
  table.begin.push_back(0);
  // One breadth-first walk per root, with the root's closure, growing at
  // the end of `members`, as its queue. stamp[v] == root + 1: the walk from
  // `root` has reached v.
  std::vector<PackageId> stamp(n, 0);
  for (PackageId root = 0; root < n; ++root) {
    const PackageId mark = root + 1;
    stamp[root] = mark;
    table.members.push_back(root);
    for (size_t next = table.begin.back(); next < table.members.size();
         ++next) {
      for (PackageId dep : edges[table.members[next]]) {
        if (stamp[dep] != mark) {
          stamp[dep] = mark;
          table.members.push_back(dep);
        }
      }
    }
    table.begin.push_back(table.members.size());
  }
  return table;
}

}  // namespace lapis::package
