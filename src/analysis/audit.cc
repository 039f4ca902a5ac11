#include "src/analysis/audit.h"

#include <cstdio>

namespace lapis::analysis {

namespace {

const char* ApiClassName(AuditFinding::ApiClass api_class) {
  switch (api_class) {
    case AuditFinding::ApiClass::kSyscall:
      return "syscall";
    case AuditFinding::ApiClass::kIoctlOp:
      return "ioctl op";
    case AuditFinding::ApiClass::kFcntlOp:
      return "fcntl op";
    case AuditFinding::ApiClass::kPrctlOp:
      return "prctl op";
    case AuditFinding::ApiClass::kInt80Syscall:
      return "int80 syscall";
    case AuditFinding::ApiClass::kPseudoPath:
      return "pseudo path";
  }
  return "api";
}

// Compares one API class: everything in `observed` must appear in `claimed`
// or be excused by `unknown_sites` of the same class.
template <typename T>
void CompareClass(const SortedSet<T>& observed, const SortedSet<T>& claimed,
                  int unknown_sites, AuditFinding::ApiClass api_class,
                  BinaryAuditResult& out) {
  for (const T& api : observed) {
    if (claimed.contains(api)) {
      continue;
    }
    if (unknown_sites > 0) {
      ++out.masked_by_unknown_sites;
      continue;
    }
    AuditFinding finding;
    finding.api_class = api_class;
    finding.code = static_cast<int64_t>(api);
    out.violations.push_back(std::move(finding));
  }
  for (const T& api : claimed) {
    if (!observed.contains(api)) {
      ++out.static_only_apis;
    }
  }
}

}  // namespace

std::string AuditFinding::Describe() const {
  char buffer[96];
  if (api_class == ApiClass::kPseudoPath) {
    return std::string("pseudo path ") + path +
           " observed but not in static footprint";
  }
  std::snprintf(buffer, sizeof(buffer),
                "%s %lld observed but not in static footprint",
                ApiClassName(api_class), static_cast<long long>(code));
  return buffer;
}

void AuditReport::Fold(BinaryAuditResult result) {
  ++executables_audited;
  observed_union.MergeFrom(result.observed);
  soundness_violations += result.violations.size();
  masked_by_unknown_sites += result.masked_by_unknown_sites;
  static_only_apis += result.static_only_apis;
  observed_apis += result.observed_apis;
  if (result.hit_step_limit) {
    ++traces_hit_step_limit;
  }
  if (!result.violations.empty()) {
    flagged.push_back(std::move(result));
  }
}

std::string AuditReport::Summary() const {
  char buffer[256];
  std::snprintf(
      buffer, sizeof(buffer),
      "audit: %zu executables replayed, %zu observed APIs, "
      "%zu soundness violations, %zu observed-but-unknown-masked, "
      "%zu static-only (over-approximation margin)",
      executables_audited, observed_apis, soundness_violations,
      masked_by_unknown_sites, static_only_apis);
  std::string out = buffer;
  if (traces_hit_step_limit > 0) {
    std::snprintf(buffer, sizeof(buffer), ", %zu traces hit the step limit",
                  traces_hit_step_limit);
    out += buffer;
  }
  return out;
}

Status FootprintAuditor::AddLibrary(
    std::shared_ptr<const elf::ElfImage> library) {
  return tracer_.AddLibrary(std::move(library));
}

Result<BinaryAuditResult> FootprintAuditor::AuditExecutable(
    const elf::ElfImage& executable, const std::string& name,
    const Footprint& claimed) const {
  LAPIS_ASSIGN_OR_RETURN(auto trace, tracer_.Trace(executable));
  const Footprint& observed = trace.observed;

  BinaryAuditResult out;
  out.name = name;
  out.observed = observed;
  out.instructions_executed = trace.instructions_executed;
  out.hit_step_limit = trace.hit_step_limit;
  out.stubbed_imports = trace.stubbed_imports;
  out.observed_apis = observed.ApiCount() + observed.int80_syscalls.size();
  out.static_apis = claimed.ApiCount() + claimed.int80_syscalls.size();

  CompareClass(observed.syscalls, claimed.syscalls,
               claimed.unknown_syscall_sites,
               AuditFinding::ApiClass::kSyscall, out);
  // A vectored opcode can go missing at an opcode-unknown site or behind a
  // number-unknown syscall site; either counter excuses it.
  const int opcode_unknowns =
      claimed.unknown_opcode_sites + claimed.unknown_syscall_sites;
  CompareClass(observed.ioctl_ops, claimed.ioctl_ops, opcode_unknowns,
               AuditFinding::ApiClass::kIoctlOp, out);
  CompareClass(observed.fcntl_ops, claimed.fcntl_ops, opcode_unknowns,
               AuditFinding::ApiClass::kFcntlOp, out);
  CompareClass(observed.prctl_ops, claimed.prctl_ops, opcode_unknowns,
               AuditFinding::ApiClass::kPrctlOp, out);
  CompareClass(observed.int80_syscalls, claimed.int80_syscalls,
               claimed.unknown_syscall_sites,
               AuditFinding::ApiClass::kInt80Syscall, out);
  // Paths have no unknown-site escape hatch: the static side sees every
  // rip-relative rodata load the tracer can dereference.
  for (const auto& path : observed.pseudo_paths) {
    if (claimed.pseudo_paths.contains(path)) {
      continue;
    }
    AuditFinding finding;
    finding.api_class = AuditFinding::ApiClass::kPseudoPath;
    finding.path = path;
    out.violations.push_back(std::move(finding));
  }
  for (const auto& path : claimed.pseudo_paths) {
    if (!observed.pseudo_paths.contains(path)) {
      ++out.static_only_apis;
    }
  }
  return out;
}

}  // namespace lapis::analysis
