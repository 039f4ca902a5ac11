// DistroSpec: the ground-truth plan for the synthetic distribution.
//
// The paper measured Ubuntu 15.04; we cannot redistribute it, so lapis
// builds a calibrated stand-in (DESIGN.md "Substitutions"). BuildDistroSpec
// turns the paper's published anchors (syscall tiers, Tables 1-3 and 8-11,
// Figs 2-8) into a concrete plan: which packages exist, how popular each is,
// which APIs each one uses and through which mechanism. The synthesizer
// (binary_synth.h) then emits real ELF binaries realizing the plan, and the
// analysis pipeline re-measures it.
//
// Key mechanism: every package has a "syscall prefix rank" K — it uses the
// K most-important syscalls (through libc wrappers). K is assigned by
// inverting the paper's Fig 3 weighted-completeness curve against the
// package popularity distribution, which reproduces both the weighted
// (Fig 2/3) and unweighted (Fig 8, Tables 8-11) distributions. Tail
// syscalls (ranks > 224) are instead wired into dedicated carrier packages
// chosen to hit their published importance.

#ifndef LAPIS_SRC_CORPUS_DISTRO_SPEC_H_
#define LAPIS_SRC_CORPUS_DISTRO_SPEC_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/package/repository.h"
#include "src/util/status.h"

namespace lapis::corpus {

struct DistroOptions {
  // Application packages (core libraries, interpreters, essentials and
  // dedicated tail-carrier packages are added on top).
  size_t app_package_count = 3000;
  size_t script_package_count = 450;
  size_t data_package_count = 80;
  uint64_t installation_count = 100000;
  double popcon_report_rate = 0.97;
  uint64_t seed = 20160418;  // EuroSys'16

  // What-if knob for release simulation: multiplies the adoption (carrier
  // count) of the modern/secure syscall variants in the rare tail
  // (faccessat, mkdirat, waitid, getdents64, ...). 1.0 reproduces the
  // paper's 15.04 numbers; >1 models a future release where the paper's
  // §6 outreach succeeded.
  double modern_variant_adoption = 1.0;
};

struct PackagePlan {
  std::string name;
  package::ProgramKind kind = package::ProgramKind::kElf;
  double target_marginal = 0.0;

  // Syscall usage: the K most-important ranked syscalls via libc wrappers.
  int syscall_prefix_rank = 0;
  std::vector<int> extra_syscalls;  // dedicated tail assignments
  // True if the extra syscalls' call sites live in a shipped shared library
  // rather than the executable (Table 1 attribution).
  bool extras_via_library = false;

  // Vectored opcodes / pseudo-files / libc symbols beyond the defaults that
  // fall out of the prefix mechanism. Values are indices into the
  // corresponding universe vectors (api_universe.h).
  std::vector<size_t> ioctl_ranks;
  std::vector<size_t> fcntl_ranks;
  std::vector<size_t> prctl_ranks;
  std::vector<size_t> pseudo_file_ranks;
  std::vector<size_t> libc_common_ranks;  // common-pool sample
  std::vector<size_t> libc_extra_ranks;   // mid/tail/gnu-ext assignments
  bool uses_gnu_ext = false;              // imports GNU-only libc symbols

  int exe_count = 1;
  int lib_count = 0;
  size_t script_count = 0;        // interpreted programs shipped
  bool is_essential = false;      // installed everywhere (marginal 1.0)
  bool static_binary = false;     // fully static executable, inline syscalls
  // Pre-x86-64 relic: also issues a few calls through the legacy
  // `int $0x80` gate (i386 numbering; the paper greps for this form too).
  bool legacy_int80 = false;
  bool data_only = false;         // no programs at all
  // ~11% of executables also inline direct `syscall` instructions for a few
  // prefix syscalls (paper §7: 7,259 executables + 2,752 libraries).
  bool emits_direct_syscalls = false;
  // Emits one arithmetic-obfuscated syscall-number load (the paper's 4% of
  // undeterminable call sites).
  bool emits_obfuscated_site = false;
  // Branch-guarded direct syscall sites (`mov eax,N; jcc L; nop; L:
  // syscall` — a compiler error-path idiom). Every path into the site
  // carries the same number, so CFG dataflow recovers it while the linear
  // ablation must degrade the merge point to unknown.
  int guarded_syscall_sites = 0;
  // Wrapper-style sites only the interprocedural tier recovers. The main
  // executable gains a local `syscall(2)` clone (`mov rax, rdi; syscall`)
  // called with the rank-1 number — so the recovered *sets* are identical
  // in every tier and only the unknown-site counters move:
  //   wrapper_syscall_calls — call sites into the clone from main;
  //   wrapper_tail_plt     — the clone instead tail-jumps into libc's
  //                          syscall@plt with the number still in rdi;
  //   wrapper_guarded      — the clone carries a branch merge before its
  //                          syscall (needs CFG join *and* IPA);
  //   wrapper_two_hop_ioctl — a two-hop helper chain forwarding the
  //                          rank-0 assigned ioctl opcode
  //                          (main → helper1 → helper2 → ioctl@plt).
  int wrapper_syscall_calls = 0;
  bool wrapper_tail_plt = false;
  bool wrapper_guarded = false;
  bool wrapper_two_hop_ioctl = false;

  std::vector<std::string> depends;       // package names
  std::string interpreter_package;        // for script packages
};

struct DistroSpec {
  DistroOptions options;
  std::vector<PackagePlan> packages;

  // The global importance-rank order of all 320 syscalls (rank 1 = most
  // important; index 0 in this vector).
  std::vector<int> syscall_rank_order;

  // Name -> index into `packages`.
  std::map<std::string, size_t> by_name;

  // Ground truth: expected syscall footprint of a package under the plan
  // (startup set + ranked prefix + extras).
  std::set<int> ExpectedSyscalls(size_t package_index) const;

  // Rank (1-based) of a syscall in the global order.
  int RankOf(int syscall_nr) const;
};

// Deterministic: same options -> identical spec.
Result<DistroSpec> BuildDistroSpec(const DistroOptions& options);

}  // namespace lapis::corpus

#endif  // LAPIS_SRC_CORPUS_DISTRO_SPEC_H_
