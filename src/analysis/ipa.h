// Interprocedural constant back-tracking (the `--analysis=ipa` tier,
// paper §2.3's "call graph → constant back-tracking" step).
//
// The intra-function tiers stop at call boundaries: a `syscall(2)`-style
// wrapper receives its number in rdi, so its `syscall` site sees ⊤ in rax
// and is counted unknown even though every caller passes a constant. The
// IPA tier closes that gap in three steps:
//
//  1. Call graph. BinaryAnalyzer (use_ipa) records one IpaCallEdge per
//     direct call/jmp to a known function start — plus rip-relative
//     `call [rip+disp]` sites whose pointer slot holds a function start —
//     carrying the abstract values of the six System V argument registers
//     at the call site.
//
//  2. Wrapper summaries, bottom-up. Function entry states are seeded with
//     AbsVal::Arg facts, so a site whose deciding register still holds
//     Arg(r) at the site means "the number/opcode is exactly incoming
//     argument r, un-clobbered on every path". Such sites are deferred as
//     IpaPendingSites instead of counted unknown. Functions are processed
//     callees-first over the Tarjan SCC condensation; every function in a
//     nontrivial SCC (recursion) conservatively drops its deferred sites
//     to unknown and exposes nothing.
//
//  3. Top-down resolution. Each caller evaluates its callees' exposed
//     sites under the call edge's argument bindings: a constant resolves
//     the site and is attributed to the *caller's* local footprint (so
//     reachability, vectored-opcode breakdowns, and the auditor all see
//     it at the call site that pinned the value); a still-argument value
//     re-exposes the site one level up, bounded by ipa_max_depth; ⊤ marks
//     it unknown. Sites still exposed at exported / entry / caller-less
//     functions are unknown — external callers are out of scope.
//
// Everything is deterministic: edges are evaluated in collection order,
// SCCs in Tarjan completion order, and the pass runs after the (already
// deterministic) per-function loop, so exports stay byte-identical at any
// --jobs value.

#ifndef LAPIS_SRC_ANALYSIS_IPA_H_
#define LAPIS_SRC_ANALYSIS_IPA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/binary_analyzer.h"
#include "src/analysis/dataflow.h"

namespace lapis::analysis {

// One syscall-number or vectored-opcode site whose deciding register held
// an argument fact (AbsVal::Arg) instead of a constant: resolution is
// deferred to the interprocedural pass.
struct IpaPendingSite {
  enum class Kind : uint8_t {
    kSyscallNumber,     // syscall/sysenter: number = rax
    kPltSyscallNumber,  // syscall@plt: number = rdi
    kInt80Number,       // int 0x80: number = eax (i386 numbering)
    kIoctlOp,           // ioctl (direct nr or @plt): opcode = rsi
    kFcntlOp,           // fcntl/fcntl64: opcode = rsi
    kPrctlOp,           // prctl: opcode = rdi
  };
  Kind kind = Kind::kSyscallNumber;
  // Number-kind sites: the Arg fact for the syscall number. Opcode-kind
  // sites leave it defaulted and are decided by op_rsi / op_rdi.
  AbsVal number = AbsVal::Top();
  AbsVal op_rsi = AbsVal::Top();  // rsi at the site (ioctl/fcntl opcode)
  AbsVal op_rdi = AbsVal::Top();  // rdi at the site (prctl opcode)
};

// One call-graph edge with the abstract argument-register values at the
// call site (System V order: rdi, rsi, rdx, rcx, r8, r9).
struct IpaCallEdge {
  uint64_t callee_vaddr = 0;
  AbsVal args[6];
};

// Facts one function contributes to the interprocedural pass; collected by
// BinaryAnalyzer under use_ipa, parallel to BinaryAnalysis::functions().
struct IpaFunctionFacts {
  std::vector<IpaPendingSite> sites;
  std::vector<IpaCallEdge> edges;
};

// Runs the bottom-up summary / top-down resolution pass over one binary's
// collected facts, attributing recovered constants (and residual unknown
// counters) into the owning/resolving functions' local footprints.
// `facts` must be parallel to `functions`; `max_depth` bounds wrapper-chain
// re-exposure (AnalyzerOptions::ipa_max_depth). Returns how many deferred
// syscall-number sites stayed unknown: the binary-level counter's delta.
int PropagateInterprocedural(const std::vector<IpaFunctionFacts>& facts,
                             std::vector<FunctionInfo>& functions,
                             const std::vector<std::string>& exports,
                             bool is_executable, uint64_t entry_vaddr,
                             int max_depth);

}  // namespace lapis::analysis

#endif  // LAPIS_SRC_ANALYSIS_IPA_H_
