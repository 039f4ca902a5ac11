// Footprint soundness auditor (paper §2.3: "we spot check that static
// analysis returns a superset of strace results" — here made a
// machine-checked, corpus-wide invariant).
//
// For each executable the auditor replays the binary in the DynamicTracer
// and differentially compares what the replay touched against the claimed
// static footprint — the one the study resolved (entry-reachable code plus
// the import closure through every registered library) and exports:
//
//   * soundness violation — an API observed during execution that the
//     static footprint neither claims nor excuses. This must never happen;
//     one violation means the analyzer confidently reported a wrong/partial
//     fact somewhere (e.g. the historical kJccRel state leak).
//   * masked by unknown sites — observed but statically absent, while the
//     footprint carries unknown-site counters of the same class: the
//     analyzer knew it lost track. Precision debt, not unsoundness.
//   * static-only APIs — claimed statically, never observed. Expected: one
//     concrete trace covers a single path through an over-approximation.
//
// The claimed footprint is the study's own, produced under its
// AnalyzerOptions, so the `use_dataflow` ablation switch (and the
// methodology switches) are audited exactly as configured;
// `lapis_study --audit` and the bench_dataflow_precision benchmark report
// both modes side by side.

#ifndef LAPIS_SRC_ANALYSIS_AUDIT_H_
#define LAPIS_SRC_ANALYSIS_AUDIT_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/dynamic_trace.h"
#include "src/analysis/footprint.h"
#include "src/util/status.h"

namespace lapis::analysis {

// One observed-but-unclaimed API (a soundness violation).
struct AuditFinding {
  enum class ApiClass : uint8_t {
    kSyscall,
    kIoctlOp,
    kFcntlOp,
    kPrctlOp,
    kInt80Syscall,
    kPseudoPath,
  };
  ApiClass api_class = ApiClass::kSyscall;
  int64_t code = 0;   // syscall number / opcode (unused for paths)
  std::string path;   // pseudo path (kPseudoPath only)

  // "syscall 16 observed but not in static footprint".
  std::string Describe() const;
};

// Differential result for one executable.
struct BinaryAuditResult {
  std::string name;
  // Everything the dynamic replay actually touched (the trace's footprint).
  // Downstream planning separates these "must-implement" APIs from
  // claimed-but-never-observed "stub-safe" ones.
  Footprint observed;
  std::vector<AuditFinding> violations;
  size_t masked_by_unknown_sites = 0;  // observed, absent, but excused
  size_t static_only_apis = 0;         // over-approximation margin
  size_t observed_apis = 0;
  size_t static_apis = 0;
  size_t instructions_executed = 0;
  bool hit_step_limit = false;
  std::set<std::string> stubbed_imports;

  bool sound() const { return violations.empty(); }
};

// Corpus-wide aggregate. Fold per-binary results in canonical order so the
// report is deterministic at any worker count.
struct AuditReport {
  size_t executables_audited = 0;
  size_t soundness_violations = 0;
  size_t masked_by_unknown_sites = 0;
  size_t static_only_apis = 0;
  size_t observed_apis = 0;
  size_t traces_hit_step_limit = 0;
  // Union of every audited executable's observed footprint — the corpus-wide
  // dynamic-replay evidence the support planner consumes.
  Footprint observed_union;
  // Per-binary diagnostics for every binary with at least one violation.
  std::vector<BinaryAuditResult> flagged;

  void Fold(BinaryAuditResult result);
  bool sound() const { return soundness_violations == 0; }
  // One-paragraph human summary for the study banner / CLI.
  std::string Summary() const;
};

class FootprintAuditor {
 public:
  // Registers a shared library with the tracer; PLT calls of replayed
  // executables follow into it. Register in the resolver's order.
  Status AddLibrary(std::shared_ptr<const elf::ElfImage> library);

  // Traces one executable and compares the replay against `claimed`, its
  // resolved static footprint. Safe to call concurrently once every
  // library is registered.
  Result<BinaryAuditResult> AuditExecutable(const elf::ElfImage& executable,
                                            const std::string& name,
                                            const Footprint& claimed) const;

 private:
  DynamicTracer tracer_;
};

}  // namespace lapis::analysis

#endif  // LAPIS_SRC_ANALYSIS_AUDIT_H_
