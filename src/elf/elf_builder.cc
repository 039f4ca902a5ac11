#include "src/elf/elf_builder.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "src/elf/elf_defs.h"
#include "src/util/bytes.h"

namespace lapis::elf {

namespace {

constexpr uint64_t kExecBase = 0x400000;
constexpr uint64_t kPltStubSize = 16;
constexpr uint64_t kGotEntrySize = 8;
constexpr uint16_t kPhnum = 3;  // LOAD(RX) LOAD(RW) DYNAMIC
constexpr size_t kMinSlots = 64;

// Sections in file order, after the leading null section header.
enum SectionIndex : uint32_t {
  kIdxNull = 0,
  kIdxDynsym,
  kIdxDynstr,
  kIdxRelaPlt,
  kIdxPlt,
  kIdxText,
  kIdxRodata,
  kIdxGotPlt,
  kIdxDynamic,
  kIdxSymtab,
  kIdxStrtab,
  kIdxShstrtab,
  kSectionCount,
};

// The header fields every emitted binary shares, per section.
struct SectionSpec {
  std::string_view name;
  uint32_t type;
  uint64_t flags;
  uint64_t align;
  uint64_t entsize;
  uint32_t link;
};

constexpr SectionSpec kSections[kSectionCount] = {
    {"", kShtNull, 0, 0, 0, 0},
    {".dynsym", kShtDynsym, kShfAlloc, 8, kSymSize, kIdxDynstr},
    {".dynstr", kShtStrtab, kShfAlloc, 1, 0, 0},
    {".rela.plt", kShtRela, kShfAlloc, 8, kRelaSize, kIdxDynsym},
    {".plt", kShtProgbits, kShfAlloc | kShfExecinstr, 16, 0, 0},
    {".text", kShtProgbits, kShfAlloc | kShfExecinstr, 16, 0, 0},
    {".rodata", kShtProgbits, kShfAlloc, 8, 0, 0},
    {".got.plt", kShtProgbits, kShfAlloc | kShfWrite, 8, 0, 0},
    {".dynamic", kShtDynamic, kShfAlloc | kShfWrite, 8, kDynSize, kIdxDynstr},
    {".symtab", kShtSymtab, 0, 8, kSymSize, kIdxStrtab},
    {".strtab", kShtStrtab, 0, 1, 0, 0},
    {".shstrtab", kShtStrtab, 0, 1, 0, 0},
};

// .shstrtab, the same in every binary: the empty name, then each section's.
constexpr uint64_t ShstrtabSize() {
  uint64_t size = 1;
  for (const SectionSpec& spec : kSections) {
    size += spec.name.empty() ? 0 : spec.name.size() + 1;
  }
  return size;
}

// Little-endian stores at a moving position in a buffer already sized to
// the whole file (and zero-filled, so zero fields need no store). Each
// section gets its own short-lived cursor, which the compiler keeps in a
// register: a byte store cannot alias it there.
class Cursor {
 public:
  explicit Cursor(uint8_t* at) : at_(at) {}

  uint8_t* at() const { return at_; }

  void U8(uint8_t v) { *at_++ = v; }
  void U16(uint16_t v) { Put(v); }
  void U32(uint32_t v) { Put(v); }
  void U64(uint64_t v) { Put(v); }
  void Bytes(const void* src, size_t count) {
    if (count != 0) {
      std::memcpy(at_, src, count);
    }
    at_ += count;
  }
  void Fill(uint8_t byte, size_t count) {
    std::memset(at_, byte, count);
    at_ += count;
  }
  void Sym(uint32_t name, uint8_t info, uint16_t shndx, uint64_t value,
           uint64_t size) {
    U32(name);
    U8(info);
    U8(0);  // st_other
    U16(shndx);
    U64(value);
    U64(size);
  }
  void Phdr(uint32_t type, uint32_t flags, uint64_t offset, uint64_t vaddr,
            uint64_t size) {
    U32(type);
    U32(flags);
    U64(offset);
    U64(vaddr);
    U64(vaddr);  // p_paddr
    U64(size);   // p_filesz
    U64(size);   // p_memsz
    U64(0x1000);
  }
  void Dyn(int64_t tag, uint64_t value) {
    U64(static_cast<uint64_t>(tag));
    U64(value);
  }

 private:
  template <typename T>
  void Put(T v) {
    StoreLittleEndian(at_, v);
    at_ += sizeof(T);
  }

  uint8_t* at_;
};

}  // namespace

void ElfBuilder::StringTable::Clear() {
  bytes_.assign(1, 0);
  offsets_.clear();
  // The index keeps its size: growing it again would re-place every name.
  slots_.assign(std::max(slots_.size(), kMinSlots), 0);
}

std::string_view ElfBuilder::StringTable::Name(uint32_t id) const {
  const uint32_t begin = offsets_[id];
  const size_t end =
      id + 1 < offsets_.size() ? offsets_[id + 1] : bytes_.size();
  return {reinterpret_cast<const char*>(bytes_.data()) + begin,
          end - 1 - begin};
}

size_t ElfBuilder::StringTable::Slot(std::string_view name) const {
  const size_t mask = slots_.size() - 1;
  size_t slot = std::hash<std::string_view>{}(name) & mask;
  while (slots_[slot] != 0 && Name(slots_[slot] - 1) != name) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

uint32_t ElfBuilder::StringTable::Intern(std::string_view name) {
  const size_t slot = Slot(name);
  if (slots_[slot] != 0) {
    return slots_[slot] - 1;
  }
  const auto id = static_cast<uint32_t>(offsets_.size());
  offsets_.push_back(static_cast<uint32_t>(bytes_.size()));
  bytes_.insert(bytes_.end(), name.begin(), name.end());
  bytes_.push_back(0);
  slots_[slot] = id + 1;
  if (2 * offsets_.size() > slots_.size()) {
    // Keep the load at most one half: double and re-place every name.
    slots_.assign(2 * slots_.size(), 0);
    for (uint32_t i = 0; i < offsets_.size(); ++i) {
      slots_[Slot(Name(i))] = i + 1;
    }
  }
  return id;
}

void ElfBuilder::Reset(BinaryType type) {
  type_ = type;
  soname_.clear();
  needed_.clear();
  imports_.Clear();
  rodata_.clear();
  functions_.clear();
  entry_function_ = -1;
}

uint32_t ElfBuilder::AddRodata(std::span<const uint8_t> data) {
  uint32_t off = static_cast<uint32_t>(rodata_.size());
  rodata_.insert(rodata_.end(), data.begin(), data.end());
  return off;
}

uint32_t ElfBuilder::AddRodataString(std::string_view s) {
  uint32_t off = static_cast<uint32_t>(rodata_.size());
  rodata_.insert(rodata_.end(), s.begin(), s.end());
  rodata_.push_back(0);
  return off;
}

uint32_t ElfBuilder::AddFunction(FunctionDef fn) {
  functions_.push_back(std::move(fn));
  return static_cast<uint32_t>(functions_.size() - 1);
}

Status ElfBuilder::SetEntryFunction(uint32_t function_index) {
  if (function_index >= functions_.size()) {
    return InvalidArgumentError("entry function index out of range");
  }
  entry_function_ = function_index;
  return Status::Ok();
}

Result<std::vector<uint8_t>> ElfBuilder::Build() {
  std::vector<uint8_t> out;
  LAPIS_RETURN_IF_ERROR(BuildInto(out));
  return out;
}

Status ElfBuilder::BuildInto(std::vector<uint8_t>& out) {
  if (type_ == BinaryType::kExecutable && entry_function_ < 0) {
    return FailedPreconditionError("executable requires an entry function");
  }
  for (const auto& fn : functions_) {
    for (const auto& reloc : fn.relocs) {
      // In 64 bits: an offset near UINT32_MAX must not wrap past the check.
      if (uint64_t{reloc.offset} + 4 > fn.body.size()) {
        return InvalidArgumentError("relocation outside function body in " +
                                    fn.name);
      }
      switch (reloc.kind) {
        case TextReloc::Kind::kPltCall:
          if (reloc.target >= imports_.size()) {
            return InvalidArgumentError("plt reloc target out of range");
          }
          break;
        case TextReloc::Kind::kLocalCall:
          if (reloc.target >= functions_.size()) {
            return InvalidArgumentError("local call target out of range");
          }
          break;
        case TextReloc::Kind::kRodataRef:
          if (reloc.target >= rodata_.size()) {
            return InvalidArgumentError("rodata reloc target out of range");
          }
          break;
      }
    }
  }

  // ---- String tables: each distinct name once, at its first sight in
  // this order, which fixes every name's offset ----
  dynstr_.Clear();
  dynstr_names_.clear();
  for (const auto& lib : needed_) {
    dynstr_names_.push_back(dynstr_.Add(lib));
  }
  const uint32_t soname = dynstr_.Add(soname_);
  const size_t imports = imports_.size();
  for (uint32_t i = 0; i < imports; ++i) {
    dynstr_names_.push_back(dynstr_.Add(imports_.Name(i)));
  }
  size_t exports = 0;
  for (const auto& fn : functions_) {
    if (fn.exported) {
      dynstr_names_.push_back(dynstr_.Add(fn.name));
      ++exports;
    }
  }
  const uint32_t* needed_names = dynstr_names_.data();
  const uint32_t* import_names = needed_names + needed_.size();
  const uint32_t* export_names = import_names + imports;
  strtab_.Clear();
  strtab_names_.clear();
  for (const auto& fn : functions_) {
    strtab_names_.push_back(strtab_.Add(fn.name));
  }

  // ---- Layout: ehdr, phdrs, then sections in order; vaddr = base +
  // offset for allocated sections. Functions are 16-byte aligned. ----
  text_offsets_.clear();
  uint64_t text_size = 0;
  for (const auto& fn : functions_) {
    text_size = (text_size + 15) & ~15ULL;
    text_offsets_.push_back(text_size);
    text_size += fn.body.size();
  }
  const size_t dynamic_entries =
      needed_.size() + (soname_.empty() ? 0 : 1) +
      /* STRTAB SYMTAB STRSZ SYMENT */ 4 +
      (imports == 0 ? 0 : 4) /* JMPREL PLTRELSZ PLTREL PLTGOT */ +
      1 /* NULL */;
  uint64_t size[kSectionCount] = {};
  size[kIdxDynsym] = (1 + imports + exports) * kSymSize;
  size[kIdxDynstr] = dynstr_.bytes().size();
  size[kIdxRelaPlt] = imports * kRelaSize;
  size[kIdxPlt] = imports * kPltStubSize;
  size[kIdxText] = text_size;
  size[kIdxRodata] = rodata_.size();
  size[kIdxGotPlt] = imports * kGotEntrySize;
  size[kIdxDynamic] = dynamic_entries * kDynSize;
  size[kIdxSymtab] = (1 + functions_.size()) * kSymSize;
  size[kIdxStrtab] = strtab_.bytes().size();
  size[kIdxShstrtab] = ShstrtabSize();

  const uint64_t base = type_ == BinaryType::kExecutable ? kExecBase : 0;
  uint64_t offset[kSectionCount] = {};
  uint64_t addr[kSectionCount] = {};
  uint64_t cursor = kEhdrSize + uint64_t{kPhnum} * kPhdrSize;
  for (uint32_t i = 1; i < kSectionCount; ++i) {
    const uint64_t align = std::max<uint64_t>(kSections[i].align, 1);
    cursor = (cursor + align - 1) & ~(align - 1);
    offset[i] = cursor;
    if ((kSections[i].flags & kShfAlloc) != 0) {
      addr[i] = base + cursor;
    }
    cursor += size[i];
  }
  const uint64_t shoff = (cursor + 7) & ~7ULL;

  out.clear();
  out.resize(shoff + uint64_t{kSectionCount} * kShdrSize);
  uint8_t* const file = out.data();

  {  // ehdr, then the phdrs right after it
    Cursor w(file);
    for (uint8_t b : {kMag0, kMag1, kMag2, kMag3, kClass64, kData2Lsb,
                      kEvCurrent, kOsabiSysv}) {
      w.U8(b);
    }
    w = Cursor(file + kEiNident);
    w.U16(type_ == BinaryType::kExecutable ? kEtExec : kEtDyn);
    w.U16(kEmX8664);
    w.U32(1);  // e_version
    w.U64(type_ == BinaryType::kExecutable
              ? addr[kIdxText] +
                    text_offsets_[static_cast<size_t>(entry_function_)]
              : 0);
    w.U64(kEhdrSize);  // e_phoff
    w.U64(shoff);
    w.U32(0);  // e_flags
    w.U16(kEhdrSize);
    w.U16(kPhdrSize);
    w.U16(kPhnum);
    w.U16(kShdrSize);
    w.U16(kSectionCount);
    w.U16(kIdxShstrtab);
    // RX: file start through end of .rodata.
    w.Phdr(kPtLoad, kPfR | kPfX, 0, base,
           offset[kIdxRodata] + size[kIdxRodata]);
    // RW: .got.plt + .dynamic.
    w.Phdr(kPtLoad, kPfR | kPfW, offset[kIdxGotPlt], addr[kIdxGotPlt],
           offset[kIdxDynamic] + size[kIdxDynamic] - offset[kIdxGotPlt]);
    w.Phdr(kPtDynamic, kPfR | kPfW, offset[kIdxDynamic], addr[kIdxDynamic],
           size[kIdxDynamic]);
  }

  {  // .dynsym: null, imports (UND), then exported functions
    const uint8_t global_func = StInfo(kStbGlobal, kSttFunc);
    Cursor w(file + offset[kIdxDynsym] + kSymSize);
    for (size_t i = 0; i < imports; ++i) {
      w.Sym(import_names[i], global_func, kShnUndef, 0, 0);
    }
    for (size_t i = 0, e = 0; i < functions_.size(); ++i) {
      if (functions_[i].exported) {
        w.Sym(export_names[e++], global_func, kIdxText,
              addr[kIdxText] + text_offsets_[i], functions_[i].body.size());
      }
    }
  }

  Cursor(file + offset[kIdxDynstr]).Bytes(dynstr_.bytes().data(),
                                          size[kIdxDynstr]);

  {  // .rela.plt and .plt: a jump slot and a `jmp *got(%rip)` stub each
    Cursor rela(file + offset[kIdxRelaPlt]);
    Cursor plt(file + offset[kIdxPlt]);
    for (size_t i = 0; i < imports; ++i) {
      const uint64_t stub_vaddr = addr[kIdxPlt] + i * kPltStubSize;
      const uint64_t got_vaddr = addr[kIdxGotPlt] + i * kGotEntrySize;
      rela.U64(got_vaddr);
      rela.U64(RInfo(static_cast<uint32_t>(i + 1), kRX8664JumpSlot));
      rela.U64(0);  // r_addend
      plt.U8(0xff);
      plt.U8(0x25);
      plt.U32(static_cast<uint32_t>(got_vaddr - (stub_vaddr + 6)));
      plt.U16(0x9090);  // ten bytes of nop padding
      plt.U64(0x9090909090909090);
    }
  }

  {  // .text: bodies with nop padding between them, patched as they land
    uint8_t* const text = file + offset[kIdxText];
    Cursor w(text);
    for (size_t i = 0; i < functions_.size(); ++i) {
      const FunctionDef& fn = functions_[i];
      uint8_t* const body = text + text_offsets_[i];
      w.Fill(0x90, static_cast<size_t>(body - w.at()));
      w.Bytes(fn.body.data(), fn.body.size());
      const uint64_t fn_vaddr = addr[kIdxText] + text_offsets_[i];
      for (const auto& reloc : fn.relocs) {
        uint64_t target_vaddr = 0;
        switch (reloc.kind) {
          case TextReloc::Kind::kPltCall:
            target_vaddr = addr[kIdxPlt] + reloc.target * kPltStubSize;
            break;
          case TextReloc::Kind::kLocalCall:
            target_vaddr = addr[kIdxText] + text_offsets_[reloc.target];
            break;
          case TextReloc::Kind::kRodataRef:
            target_vaddr = addr[kIdxRodata] + reloc.target;
            break;
        }
        Cursor(body + reloc.offset)
            .U32(static_cast<uint32_t>(target_vaddr -
                                       (fn_vaddr + reloc.offset + 4)));
      }
    }
  }

  Cursor(file + offset[kIdxRodata]).Bytes(rodata_.data(), rodata_.size());

  {  // .got.plt stays zero. .dynamic (its DT_NULL is already zero):
    Cursor w(file + offset[kIdxDynamic]);
    for (size_t i = 0; i < needed_.size(); ++i) {
      w.Dyn(kDtNeeded, needed_names[i]);
    }
    if (!soname_.empty()) {
      w.Dyn(kDtSoname, soname);
    }
    w.Dyn(kDtStrtab, addr[kIdxDynstr]);
    w.Dyn(kDtSymtab, addr[kIdxDynsym]);
    w.Dyn(kDtStrsz, size[kIdxDynstr]);
    w.Dyn(kDtSyment, kSymSize);
    if (imports != 0) {
      w.Dyn(kDtJmprel, addr[kIdxRelaPlt]);
      w.Dyn(kDtPltrelsz, size[kIdxRelaPlt]);
      w.Dyn(kDtPltrel, kDtRela);
      w.Dyn(kDtPltgot, addr[kIdxGotPlt]);
    }
  }

  {  // .symtab: null, locals first (required ordering), then globals
    Cursor w(file + offset[kIdxSymtab] + kSymSize);
    for (bool global : {false, true}) {
      for (size_t i = 0; i < functions_.size(); ++i) {
        if (functions_[i].exported == global) {
          w.Sym(strtab_names_[i],
                StInfo(global ? kStbGlobal : kStbLocal, kSttFunc), kIdxText,
                addr[kIdxText] + text_offsets_[i], functions_[i].body.size());
        }
      }
    }
  }

  Cursor(file + offset[kIdxStrtab]).Bytes(strtab_.bytes().data(),
                                          size[kIdxStrtab]);

  {  // .shstrtab and the section headers; the null header stays zero.
    Cursor names(file + offset[kIdxShstrtab] + 1);
    Cursor w(file + shoff + kShdrSize);
    for (uint32_t i = 1; i < kSectionCount; ++i) {
      const SectionSpec& spec = kSections[i];
      w.U32(static_cast<uint32_t>(names.at() - (file + offset[kIdxShstrtab])));
      names.Bytes(spec.name.data(), spec.name.size());
      names.U8(0);
      w.U32(spec.type);
      w.U64(spec.flags);
      w.U64(addr[i]);
      w.U64(offset[i]);
      w.U64(size[i]);
      w.U32(spec.link);
      w.U32(0);  // sh_info
      w.U64(spec.align);
      w.U64(spec.entsize);
    }
  }
  return Status::Ok();
}

}  // namespace lapis::elf
