// Per-binary static analysis (paper §2.3, §7).
//
// For each ELF binary:
//   1. Build the function table from .symtab (defined STT_FUNC symbols).
//   2. Disassemble each function, split it into basic blocks (cfg.h), and
//      run constant propagation over the abstract register lattice
//      (dataflow.h) — a CFG worklist fixpoint by default, or the paper's
//      single-pass linear back-tracking as an ablation baseline
//      (AnalyzerOptions::use_dataflow).
//   3. At `syscall` / `sysenter` / `int 0x80` sites, recover the system-call
//      number from the propagated rax fact; at vectored calls (ioctl/fcntl/
//      prctl, direct or via their libc PLT wrappers) recover the opcode from
//      the argument register; at PLT calls record the imported symbol; at
//      rip-relative string loads record hard-coded pseudo-file paths.
//   4. Build the intra-binary call graph (call/jmp rel32 between functions,
//      plus rip-relative-resolvable indirect calls under use_ipa).
//   5. Under AnalyzerOptions::use_ipa, run the interprocedural constant
//      back-tracking pass (ipa.h): sites whose deciding register is an
//      incoming argument are resolved through wrapper chains from their
//      call sites instead of counted unknown.
//
// Reachability and cross-library resolution live in library_resolver.h; the
// differential soundness audit against the dynamic tracer lives in audit.h.

#ifndef LAPIS_SRC_ANALYSIS_BINARY_ANALYZER_H_
#define LAPIS_SRC_ANALYSIS_BINARY_ANALYZER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/analysis/footprint.h"
#include "src/elf/elf_image.h"
#include "src/util/packed_strings.h"
#include "src/util/sorted_set.h"
#include "src/util/status.h"

namespace lapis::cache {
class AnalysisCodec;
}  // namespace lapis::cache

namespace lapis::analysis {

// Analysis result for one function.
struct FunctionInfo {
  std::string name;
  uint64_t vaddr = 0;
  uint64_t size = 0;

  Footprint local;                       // APIs requested directly here
  SortedSet<uint32_t> plt_calls;         // imports called, ids into imports()
  SortedSet<uint64_t> local_callees;     // vaddrs of intra-binary callees
  size_t basic_block_count = 0;          // CFG size (diagnostics)
  bool decode_complete = true;           // linear sweep covered whole body
};

// Analysis result for one binary.
class BinaryAnalysis {
 public:
  // Sorted by vaddr.
  const std::vector<FunctionInfo>& functions() const { return functions_; }
  // Exactly the imported symbols some function calls, sorted by name, so a
  // function's plt_calls ids ascend in name order.
  const PackedStrings& imports() const { return imports_; }
  const std::vector<std::string>& needed() const { return needed_; }
  const std::string& soname() const { return soname_; }
  bool is_executable() const { return is_executable_; }
  uint64_t entry() const { return entry_; }

  // Function lookup by start vaddr or name; nullptr if absent. Of several
  // definitions the first in functions() wins.
  const FunctionInfo* FunctionAt(uint64_t vaddr) const;
  const FunctionInfo* FunctionNamed(std::string_view name) const;

  // Calls `visit` once per function reachable from `roots` (function start
  // vaddrs) through the intra-binary call graph, breadth first. The
  // resolver walks an executable from its entry (paper: "reachable from
  // e_entry") and a library export from its definition.
  void ForEachReachable(
      const std::vector<uint64_t>& roots,
      const std::function<void(const FunctionInfo&)>& visit) const;

  // Names exported via .dynsym (defined global functions).
  const std::vector<std::string>& exports() const { return exports_; }

  // Total call sites inspected / sites with undeterminable numbers.
  int total_syscall_sites = 0;
  int unknown_syscall_sites = 0;

 private:
  friend class BinaryAnalyzer;
  // The incremental-analysis cache serializes/restores whole analyses so a
  // warm run can skip parse → CFG → dataflow (src/cache/analysis_codec.h).
  friend class lapis::cache::AnalysisCodec;

  // Builds by_name_ once functions_ is complete.
  void IndexNames();

  std::vector<FunctionInfo> functions_;
  std::vector<uint32_t> by_name_;  // functions_ indices, sorted by name
  PackedStrings imports_;
  std::vector<std::string> exports_;
  std::vector<std::string> needed_;
  std::string soname_;
  bool is_executable_ = false;
  uint64_t entry_ = 0;
};

// Methodology switches, mirroring the paper's.
struct AnalyzerOptions {
  // Recognize libc wrapper calls (ioctl/fcntl/prctl/syscall) and recover
  // opcodes / numbers from their argument registers.
  bool resolve_wrapper_opcodes = true;
  // Collect hard-coded /proc, /sys, /dev paths from rip-relative loads.
  bool collect_pseudo_paths = true;
  // Propagate register constants with the CFG worklist fixpoint
  // (dataflow.h). false = the paper's single-pass linear back-tracking,
  // kept benchmarkable as the ablation baseline: sound after the
  // branch-target fix, but every merge point degrades to unknown.
  bool use_dataflow = true;
  // Interprocedural constant back-tracking over the intra-binary call
  // graph (ipa.h): argument facts are seeded at function entries, wrapper
  // summaries computed bottom-up over the SCC condensation, and call-site
  // constants propagated through wrapper chains. Implies CFG dataflow
  // propagation regardless of use_dataflow.
  bool use_ipa = false;
  // Wrapper-chain hops a deferred site may be re-exposed through before
  // the interprocedural pass gives up (ablation lever for use_ipa).
  int ipa_max_depth = 4;
};

class BinaryAnalyzer {
 public:
  using Options = AnalyzerOptions;

  static Result<BinaryAnalysis> Analyze(const elf::ElfImage& image,
                                        const Options& options = Options());
};

}  // namespace lapis::analysis

#endif  // LAPIS_SRC_ANALYSIS_BINARY_ANALYZER_H_
