#include "src/package/repository.h"

#include <deque>

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

std::vector<PackageId> Repository::DependencyClosure(PackageId id) const {
  std::vector<PackageId> out;
  std::vector<bool> visited(packages_.size(), false);
  std::deque<PackageId> queue = {id};
  while (!queue.empty()) {
    PackageId current = queue.front();
    queue.pop_front();
    if (current >= packages_.size() || visited[current]) {
      continue;
    }
    visited[current] = true;
    out.push_back(current);
    const Package& pkg = packages_[current];
    for (PackageId dep : pkg.depends) {
      if (!visited[dep]) {
        queue.push_back(dep);
      }
    }
    if (pkg.interpreter != kInvalidPackage && !visited[pkg.interpreter]) {
      queue.push_back(pkg.interpreter);
    }
  }
  return out;
}

std::vector<PackageId> Repository::ReverseDependencyClosure(
    PackageId id) const {
  std::vector<PackageId> out;
  for (PackageId candidate = 0; candidate < packages_.size(); ++candidate) {
    for (PackageId member : DependencyClosure(candidate)) {
      if (member == id) {
        out.push_back(candidate);
        break;
      }
    }
  }
  return out;
}

}  // namespace lapis::package
