// Parsed, queryable representation of an ELF64 binary.
//
// ElfImage owns a copy of the file bytes; section data views point into that
// buffer. Produced by ElfReader (elf_reader.h), consumed by the static
// analyzer (src/analysis) and by tests.

#ifndef LAPIS_SRC_ELF_ELF_IMAGE_H_
#define LAPIS_SRC_ELF_ELF_IMAGE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/elf/elf_defs.h"
#include "src/util/status.h"

namespace lapis::elf {

struct Section {
  std::string name;
  uint32_t type = kShtNull;
  uint64_t flags = 0;
  uint64_t addr = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t link = 0;
  uint64_t entsize = 0;
  // View into ElfImage's file buffer; empty for SHT_NOBITS.
  std::span<const uint8_t> data;
};

struct Symbol {
  std::string name;
  uint64_t value = 0;
  uint64_t size = 0;
  uint8_t info = 0;
  uint16_t shndx = kShnUndef;

  uint8_t bind() const { return StBind(info); }
  uint8_t type() const { return StType(info); }
  bool IsFunction() const { return type() == kSttFunc; }
  bool IsDefined() const { return shndx != kShnUndef; }
};

// Resolved PLT stub: a call to plt_vaddr is a call to the import
// dynsym()[symbol], defined in some DT_NEEDED library.
struct PltEntry {
  uint64_t plt_vaddr = 0;
  uint32_t symbol = 0;  // index into ElfImage::dynsym()
};

// Program header (loader view).
struct Segment {
  uint32_t type = kPtNull;
  uint32_t flags = 0;
  uint64_t offset = 0;
  uint64_t vaddr = 0;
  uint64_t filesz = 0;
  uint64_t memsz = 0;
  uint64_t align = 0;

  bool IsLoad() const { return type == kPtLoad; }
  bool Executable() const { return (flags & kPfX) != 0; }
  bool Writable() const { return (flags & kPfW) != 0; }
  bool ContainsVaddr(uint64_t address) const {
    return address >= vaddr && address - vaddr < memsz;
  }
};

class ElfImage {
 public:
  ElfImage() = default;

  // Identity / headers.
  uint16_t type() const { return type_; }
  bool IsExecutable() const { return type_ == kEtExec; }
  bool IsSharedLibrary() const { return type_ == kEtDyn; }
  uint64_t entry() const { return entry_; }

  // Sections.
  const std::vector<Section>& sections() const { return sections_; }
  // Returns nullptr if absent.
  const Section* FindSection(std::string_view name) const;

  // Segments (program headers).
  const std::vector<Segment>& segments() const { return segments_; }
  // The LOAD segment covering `vaddr`, or nullptr.
  const Segment* LoadSegmentFor(uint64_t vaddr) const;

  // Loader-view consistency: every allocated section lies inside a LOAD
  // segment with compatible permissions (text in an executable segment,
  // writable data in a writable one), and file ranges are in bounds.
  Status ValidateLayout() const;

  // Symbols.
  const std::vector<Symbol>& symtab() const { return symtab_; }
  const std::vector<Symbol>& dynsym() const { return dynsym_; }
  // Defined STT_FUNC symbols from .symtab (the analyzer's function table).
  std::vector<const Symbol*> DefinedFunctions() const;
  // Exported (global, defined) function names from .dynsym.
  std::vector<const Symbol*> ExportedFunctions() const;
  // Undefined .dynsym entries: symbols imported from needed libraries.
  std::vector<std::string> ImportedSymbolNames() const;

  // Dynamic info.
  const std::vector<std::string>& needed() const { return needed_; }
  const std::string& soname() const { return soname_; }

  // PLT resolution: one entry per resolved stub, sorted by plt_vaddr.
  const std::vector<PltEntry>& plt_entries() const { return plt_entries_; }
  // The dynsym index of the import a call to `vaddr` lands on; nullopt
  // unless `vaddr` starts a resolved PLT stub. A binary search, so the
  // analyzer and the tracer ask once per call without copying a name.
  std::optional<uint32_t> PltSymbolAt(uint64_t vaddr) const;

  // Address translation: bytes at a virtual address (within one section),
  // or empty span if unmapped.
  std::span<const uint8_t> DataAtVaddr(uint64_t vaddr, uint64_t size) const;

  // NUL-terminated string at a virtual address; nullopt if unmapped or
  // unterminated before the end of the containing section.
  std::optional<std::string> CStringAtVaddr(uint64_t vaddr) const;

  // Bytes from `vaddr` to the end of its containing section (empty if
  // unmapped). Used by consumers that read instruction streams of unknown
  // length, e.g. the dynamic tracer.
  std::span<const uint8_t> SpanFrom(uint64_t vaddr) const;

  // All NUL-terminated printable strings (length >= min_length) in sections
  // named .rodata / .data.
  std::vector<std::string> RodataStrings(size_t min_length = 4) const;

  const std::vector<uint8_t>& file_bytes() const { return file_; }

 private:
  friend class ElfReader;

  std::vector<uint8_t> file_;
  uint16_t type_ = kEtNone;
  uint64_t entry_ = 0;
  std::vector<Segment> segments_;
  std::vector<Section> sections_;
  std::vector<Symbol> symtab_;
  std::vector<Symbol> dynsym_;
  std::vector<std::string> needed_;
  std::string soname_;
  std::vector<PltEntry> plt_entries_;
};

}  // namespace lapis::elf

#endif  // LAPIS_SRC_ELF_ELF_IMAGE_H_
