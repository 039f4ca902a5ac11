// ELF64 on-disk structures and constants (x86-64 subset).
//
// lapis carries its own definitions rather than including <elf.h> so the
// reader/writer are self-contained and the subset we support is explicit.
// Field names follow the ELF specification (e_*, p_*, sh_*, st_*, r_*, d_*).

#ifndef LAPIS_SRC_ELF_ELF_DEFS_H_
#define LAPIS_SRC_ELF_ELF_DEFS_H_

#include <cstdint>

namespace lapis::elf {

// ---- e_ident ----
inline constexpr uint8_t kMag0 = 0x7f;
inline constexpr uint8_t kMag1 = 'E';
inline constexpr uint8_t kMag2 = 'L';
inline constexpr uint8_t kMag3 = 'F';
inline constexpr uint8_t kClass64 = 2;        // ELFCLASS64
inline constexpr uint8_t kData2Lsb = 1;       // ELFDATA2LSB
inline constexpr uint8_t kEvCurrent = 1;      // EV_CURRENT
inline constexpr uint8_t kOsabiSysv = 0;      // ELFOSABI_SYSV
inline constexpr int kEiNident = 16;

// ---- e_type ----
inline constexpr uint16_t kEtNone = 0;
inline constexpr uint16_t kEtRel = 1;
inline constexpr uint16_t kEtExec = 2;
inline constexpr uint16_t kEtDyn = 3;

// ---- e_machine ----
inline constexpr uint16_t kEmX8664 = 62;  // EM_X86_64

// ---- Section types ----
inline constexpr uint32_t kShtNull = 0;
inline constexpr uint32_t kShtProgbits = 1;
inline constexpr uint32_t kShtSymtab = 2;
inline constexpr uint32_t kShtStrtab = 3;
inline constexpr uint32_t kShtRela = 4;
inline constexpr uint32_t kShtDynamic = 6;
inline constexpr uint32_t kShtNobits = 8;
inline constexpr uint32_t kShtDynsym = 11;

// ---- Section flags ----
inline constexpr uint64_t kShfWrite = 0x1;
inline constexpr uint64_t kShfAlloc = 0x2;
inline constexpr uint64_t kShfExecinstr = 0x4;

// ---- Program header types ----
inline constexpr uint32_t kPtNull = 0;
inline constexpr uint32_t kPtLoad = 1;
inline constexpr uint32_t kPtDynamic = 2;

// ---- Program header flags ----
inline constexpr uint32_t kPfX = 0x1;
inline constexpr uint32_t kPfW = 0x2;
inline constexpr uint32_t kPfR = 0x4;

// ---- Symbol binding / type (st_info) ----
inline constexpr uint8_t kStbLocal = 0;
inline constexpr uint8_t kStbGlobal = 1;
inline constexpr uint8_t kSttNotype = 0;
inline constexpr uint8_t kSttObject = 1;
inline constexpr uint8_t kSttFunc = 2;
inline constexpr uint16_t kShnUndef = 0;

constexpr uint8_t StInfo(uint8_t bind, uint8_t type) {
  return static_cast<uint8_t>((bind << 4) | (type & 0xf));
}
constexpr uint8_t StBind(uint8_t info) { return info >> 4; }
constexpr uint8_t StType(uint8_t info) { return info & 0xf; }

// ---- Dynamic tags ----
inline constexpr int64_t kDtNull = 0;
inline constexpr int64_t kDtNeeded = 1;
inline constexpr int64_t kDtPltrelsz = 2;
inline constexpr int64_t kDtPltgot = 3;
inline constexpr int64_t kDtStrtab = 5;
inline constexpr int64_t kDtSymtab = 6;
inline constexpr int64_t kDtStrsz = 10;
inline constexpr int64_t kDtSyment = 11;
inline constexpr int64_t kDtSoname = 14;
inline constexpr int64_t kDtRela = 7;
inline constexpr int64_t kDtPltrel = 20;
inline constexpr int64_t kDtJmprel = 23;

// ---- Relocation types (x86-64) ----
inline constexpr uint32_t kRX8664JumpSlot = 7;

constexpr uint64_t RInfo(uint32_t sym, uint32_t type) {
  return (static_cast<uint64_t>(sym) << 32) | type;
}
constexpr uint32_t RSym(uint64_t info) { return static_cast<uint32_t>(info >> 32); }
constexpr uint32_t RType(uint64_t info) { return static_cast<uint32_t>(info); }

// Whether [offset, offset + size) lies inside [start, start + length),
// without computing either end: a corrupt header can make both wrap past
// 2^64. Covers file ranges (start 0) and address ranges alike.
constexpr bool RangeWithin(uint64_t offset, uint64_t size, uint64_t start,
                           uint64_t length) {
  return offset >= start && offset - start <= length &&
         size <= length - (offset - start);
}

// ---- Structure sizes (on-disk, ELF64) ----
inline constexpr uint16_t kEhdrSize = 64;
inline constexpr uint16_t kPhdrSize = 56;
inline constexpr uint16_t kShdrSize = 64;
inline constexpr uint64_t kSymSize = 24;
inline constexpr uint64_t kRelaSize = 24;
inline constexpr uint64_t kDynSize = 16;

// In-memory mirrors of the on-disk structures. Serialization goes through
// ByteWriter/ByteReader, so these need not be layout-identical, but field
// order matches the spec for clarity.
struct Ehdr {
  uint8_t e_ident[kEiNident];
  uint16_t e_type;
  uint16_t e_machine;
  uint32_t e_version;
  uint64_t e_entry;
  uint64_t e_phoff;
  uint64_t e_shoff;
  uint32_t e_flags;
  uint16_t e_ehsize;
  uint16_t e_phentsize;
  uint16_t e_phnum;
  uint16_t e_shentsize;
  uint16_t e_shnum;
  uint16_t e_shstrndx;
};

struct Phdr {
  uint32_t p_type;
  uint32_t p_flags;
  uint64_t p_offset;
  uint64_t p_vaddr;
  uint64_t p_paddr;
  uint64_t p_filesz;
  uint64_t p_memsz;
  uint64_t p_align;
};

struct Shdr {
  uint32_t sh_name;
  uint32_t sh_type;
  uint64_t sh_flags;
  uint64_t sh_addr;
  uint64_t sh_offset;
  uint64_t sh_size;
  uint32_t sh_link;
  uint32_t sh_info;
  uint64_t sh_addralign;
  uint64_t sh_entsize;
};

struct Sym {
  uint32_t st_name;
  uint8_t st_info;
  uint8_t st_other;
  uint16_t st_shndx;
  uint64_t st_value;
  uint64_t st_size;
};

struct Rela {
  uint64_t r_offset;
  uint64_t r_info;
  int64_t r_addend;
};

struct Dyn {
  int64_t d_tag;
  uint64_t d_val;
};

}  // namespace lapis::elf

#endif  // LAPIS_SRC_ELF_ELF_DEFS_H_
