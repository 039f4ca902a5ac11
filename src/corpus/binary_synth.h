// Binary synthesis: turns a DistroSpec plan into real ELF64 x86-64 files.
//
// Emits the four core libraries (libc.so.6 with the full 1,274-symbol export
// surface, ld-linux, libpthread, librt) and per-package executables and
// shared libraries whose machine code realizes exactly the API usage the
// plan prescribes: libc wrapper calls for the syscall prefix, direct
// `syscall` instructions (plus the occasional arithmetic-obfuscated site),
// vectored-opcode call sites, hard-coded pseudo-file path loads, and
// cross-library call chains.

#ifndef LAPIS_SRC_CORPUS_BINARY_SYNTH_H_
#define LAPIS_SRC_CORPUS_BINARY_SYNTH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/corpus/distro_spec.h"
#include "src/package/repository.h"
#include "src/util/status.h"

namespace lapis::corpus {

struct SynthesizedBinary {
  std::string name;  // file name; equals soname for shared libraries
  bool is_library = false;
  bool is_static = false;
  std::vector<uint8_t> bytes;
};

inline constexpr const char* kLibcSoname = "libc.so.6";
inline constexpr const char* kLdSoname = "ld-linux-x86-64.so.2";
inline constexpr const char* kPthreadSoname = "libpthread.so.0";
inline constexpr const char* kRtSoname = "librt.so.1";

class DistroSynthesizer {
 public:
  explicit DistroSynthesizer(const DistroSpec& spec) : spec_(spec) {}

  // The four core libraries (order: ld.so, libpthread, librt, libc).
  Result<std::vector<SynthesizedBinary>> CoreLibraries() const;

  // All binaries of one package: its libraries, then its executables.
  // Deterministic per package index.
  Result<std::vector<SynthesizedBinary>> PackageBinaries(
      size_t package_index) const;
  // The two halves of PackageBinaries, byte for byte. An executable needs
  // only its package's plan, not its libraries' bytes.
  Result<std::vector<SynthesizedBinary>> PackageLibraries(
      size_t package_index) const;
  Result<std::vector<SynthesizedBinary>> PackageExecutables(
      size_t package_index) const;

  // Interpreted programs of one package: shebang'd script files (empty for
  // ELF/data packages). The study classifies these by shebang (Fig 1).
  struct SynthesizedScript {
    std::string name;
    std::vector<uint8_t> contents;
  };
  Result<std::vector<SynthesizedScript>> PackageScripts(
      size_t package_index) const;

  // APT metadata mirror of the spec (no binaries attached).
  Result<package::Repository> BuildRepository() const;

 private:
  const DistroSpec& spec_;
};

}  // namespace lapis::corpus

#endif  // LAPIS_SRC_CORPUS_BINARY_SYNTH_H_
