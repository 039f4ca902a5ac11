// ELF64 (x86-64) parser.
//
// Parses headers, sections, symbol tables, the dynamic section, and resolves
// PLT stubs to imported symbols — everything the static analyzer needs.
// Robust against truncated or corrupt inputs: every access is bounds-checked
// (with RangeWithin, which never computes an end that could wrap past 2^64)
// and failures come back as Status.

#ifndef LAPIS_SRC_ELF_ELF_READER_H_
#define LAPIS_SRC_ELF_ELF_READER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/elf/elf_image.h"
#include "src/util/status.h"

namespace lapis::elf {

class ElfReader {
 public:
  // Parses `bytes` (copied into the returned image).
  static Result<ElfImage> Parse(std::span<const uint8_t> bytes);

  // Convenience: load from a file on disk.
  static Result<ElfImage> ParseFile(const std::string& path);
};

}  // namespace lapis::elf

#endif  // LAPIS_SRC_ELF_ELF_READER_H_
