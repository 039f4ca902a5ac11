#include "src/core/seccomp.h"

namespace lapis::core {

const char* SeccompActionName(SeccompAction action) {
  switch (action) {
    case SeccompAction::kAllow:
      return "SECCOMP_RET_ALLOW";
    case SeccompAction::kErrno:
      return "SECCOMP_RET_ERRNO(ENOSYS)";
    case SeccompAction::kKillProcess:
      return "SECCOMP_RET_KILL_PROCESS";
  }
  return "?";
}

Result<SeccompPolicy> GeneratePolicy(const StudyDataset& dataset,
                                     PackageId package,
                                     const SeccompGenOptions& options) {
  if (package >= dataset.package_count()) {
    return InvalidArgumentError("package id out of range");
  }
  SeccompPolicy policy;
  policy.subject = dataset.PackageName(package);
  policy.default_action = options.default_action;
  for (uint32_t dense : dataset.Footprint(package)) {
    const ApiId& api = dataset.UsedApis()[dense];
    if (api.kind == ApiKind::kSyscall) {
      policy.allowed.insert(api.code);
    }
  }
  if (policy.allowed.empty()) {
    return FailedPreconditionError(
        "package '" + policy.subject +
        "' has no syscall footprint; refusing to emit a kill-everything "
        "policy");
  }
  policy.allowed.insert(options.always_allow.begin(),
                        options.always_allow.end());
  return policy;
}

SeccompAction Evaluate(const SeccompPolicy& policy, uint32_t syscall_nr) {
  if (policy.allowed.contains(syscall_nr)) {
    return SeccompAction::kAllow;
  }
  if (policy.errno_syscalls.contains(syscall_nr)) {
    return SeccompAction::kErrno;
  }
  return policy.default_action;
}

std::string Render(const SeccompPolicy& policy,
                   std::string (*name_of)(uint32_t)) {
  std::string out;
  out += "# seccomp filter for " + policy.subject + "\n";
  out += "# generated by lapis from the static API footprint\n";
  for (uint32_t nr : policy.allowed) {
    std::string name =
        name_of != nullptr ? name_of(nr) : std::to_string(nr);
    out += "allow " + name + "\n";
  }
  for (uint32_t nr : policy.errno_syscalls) {
    std::string name =
        name_of != nullptr ? name_of(nr) : std::to_string(nr);
    out += "errno ENOSYS " + name + "\n";
  }
  out += std::string("default ") + SeccompActionName(policy.default_action) +
         "\n";
  return out;
}

size_t DeniedCount(const SeccompPolicy& policy, size_t universe_size) {
  size_t allowed_in_universe = 0;
  for (uint32_t nr : policy.allowed) {
    if (nr < universe_size) {
      ++allowed_in_universe;
    }
  }
  for (uint32_t nr : policy.errno_syscalls) {
    if (nr < universe_size && !policy.allowed.contains(nr)) {
      ++allowed_in_universe;  // errno'd calls are handled, not denied-by-kill
    }
  }
  return universe_size - allowed_in_universe;
}

}  // namespace lapis::core
