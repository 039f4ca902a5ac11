// API footprint types shared by the analysis pipeline and the metrics core.
//
// A footprint is "every system API a binary could possibly request" (paper
// §2.3): system-call numbers, vectored-call opcodes (ioctl/fcntl/prctl),
// and hard-coded pseudo-file paths (/proc, /sys, /dev). Every field is a
// SortedSet, so a footprint is six sorted vectors and a union is a merge.

#ifndef LAPIS_SRC_ANALYSIS_FOOTPRINT_H_
#define LAPIS_SRC_ANALYSIS_FOOTPRINT_H_

#include <cstdint>
#include <string>

#include "src/util/sorted_set.h"

namespace lapis::analysis {

// System-call numbers of the vectored system calls (x86-64 Linux).
inline constexpr int kSysIoctl = 16;
inline constexpr int kSysFcntl = 72;
inline constexpr int kSysPrctl = 157;

struct Footprint {
  SortedSet<int> syscalls;
  SortedSet<uint32_t> ioctl_ops;
  SortedSet<uint32_t> fcntl_ops;
  SortedSet<uint32_t> prctl_ops;
  SortedSet<std::string> pseudo_paths;  // canonicalized, e.g. "/proc/%/cmdline"
  // Legacy 32-bit gate numbers (i386 table; distinct numbering from the
  // x86-64 `syscalls` set above).
  SortedSet<int> int80_syscalls;

  // Call sites whose system-call number / opcode could not be statically
  // determined (the paper reports 2,454 such sites, ~4%).
  int unknown_syscall_sites = 0;
  int unknown_opcode_sites = 0;
  // Indirect calls through registers (over-approximation boundary).
  int indirect_call_sites = 0;
  // Legacy 32-bit gate (int $0x80) sites; numbers use the i386 table so they
  // are counted but not merged into `syscalls`.
  int int80_sites = 0;

  void MergeFrom(const Footprint& other);
  bool Empty() const;
  size_t ApiCount() const;
  bool operator==(const Footprint& other) const;
};

}  // namespace lapis::analysis

#endif  // LAPIS_SRC_ANALYSIS_FOOTPRINT_H_
