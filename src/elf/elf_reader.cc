#include "src/elf/elf_reader.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/util/bytes.h"

namespace lapis::elf {

namespace {

struct RawShdr {
  Shdr h;
};

Result<Ehdr> ParseEhdr(ByteReader& reader) {
  Ehdr ehdr{};
  LAPIS_ASSIGN_OR_RETURN(auto ident, reader.ReadBytes(kEiNident));
  for (int i = 0; i < kEiNident; ++i) {
    ehdr.e_ident[i] = ident[static_cast<size_t>(i)];
  }
  if (ehdr.e_ident[0] != kMag0 || ehdr.e_ident[1] != kMag1 ||
      ehdr.e_ident[2] != kMag2 || ehdr.e_ident[3] != kMag3) {
    return CorruptDataError("bad ELF magic");
  }
  if (ehdr.e_ident[4] != kClass64) {
    return UnimplementedError("only ELF64 is supported");
  }
  if (ehdr.e_ident[5] != kData2Lsb) {
    return UnimplementedError("only little-endian ELF is supported");
  }
  LAPIS_ASSIGN_OR_RETURN(ehdr.e_type, reader.ReadU16());
  LAPIS_ASSIGN_OR_RETURN(ehdr.e_machine, reader.ReadU16());
  LAPIS_ASSIGN_OR_RETURN(ehdr.e_version, reader.ReadU32());
  LAPIS_ASSIGN_OR_RETURN(ehdr.e_entry, reader.ReadU64());
  LAPIS_ASSIGN_OR_RETURN(ehdr.e_phoff, reader.ReadU64());
  LAPIS_ASSIGN_OR_RETURN(ehdr.e_shoff, reader.ReadU64());
  LAPIS_ASSIGN_OR_RETURN(ehdr.e_flags, reader.ReadU32());
  LAPIS_ASSIGN_OR_RETURN(ehdr.e_ehsize, reader.ReadU16());
  LAPIS_ASSIGN_OR_RETURN(ehdr.e_phentsize, reader.ReadU16());
  LAPIS_ASSIGN_OR_RETURN(ehdr.e_phnum, reader.ReadU16());
  LAPIS_ASSIGN_OR_RETURN(ehdr.e_shentsize, reader.ReadU16());
  LAPIS_ASSIGN_OR_RETURN(ehdr.e_shnum, reader.ReadU16());
  LAPIS_ASSIGN_OR_RETURN(ehdr.e_shstrndx, reader.ReadU16());
  if (ehdr.e_machine != kEmX8664) {
    return UnimplementedError("only x86-64 ELF is supported");
  }
  return ehdr;
}

Result<Shdr> ParseShdr(ByteReader& reader) {
  Shdr h{};
  LAPIS_ASSIGN_OR_RETURN(h.sh_name, reader.ReadU32());
  LAPIS_ASSIGN_OR_RETURN(h.sh_type, reader.ReadU32());
  LAPIS_ASSIGN_OR_RETURN(h.sh_flags, reader.ReadU64());
  LAPIS_ASSIGN_OR_RETURN(h.sh_addr, reader.ReadU64());
  LAPIS_ASSIGN_OR_RETURN(h.sh_offset, reader.ReadU64());
  LAPIS_ASSIGN_OR_RETURN(h.sh_size, reader.ReadU64());
  LAPIS_ASSIGN_OR_RETURN(h.sh_link, reader.ReadU32());
  uint32_t sh_info = 0;
  LAPIS_ASSIGN_OR_RETURN(sh_info, reader.ReadU32());
  (void)sh_info;
  uint64_t addralign = 0;
  LAPIS_ASSIGN_OR_RETURN(addralign, reader.ReadU64());
  (void)addralign;
  LAPIS_ASSIGN_OR_RETURN(h.sh_entsize, reader.ReadU64());
  h.sh_info = sh_info;
  h.sh_addralign = addralign;
  return h;
}

// Parses a symbol table section into Symbol records, resolving names via the
// linked string table.
Status ParseSymbols(const ElfImage& image, const Section& symtab_section,
                    uint32_t strtab_index, std::vector<Symbol>& out) {
  if (strtab_index >= image.sections().size()) {
    return CorruptDataError("symtab sh_link out of range");
  }
  const Section& strtab = image.sections()[strtab_index];
  ByteReader names(strtab.data);
  ByteReader reader(symtab_section.data);
  size_t count = symtab_section.data.size() / kSymSize;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Sym raw{};
    LAPIS_ASSIGN_OR_RETURN(raw.st_name, reader.ReadU32());
    LAPIS_ASSIGN_OR_RETURN(raw.st_info, reader.ReadU8());
    LAPIS_ASSIGN_OR_RETURN(raw.st_other, reader.ReadU8());
    LAPIS_ASSIGN_OR_RETURN(raw.st_shndx, reader.ReadU16());
    LAPIS_ASSIGN_OR_RETURN(raw.st_value, reader.ReadU64());
    LAPIS_ASSIGN_OR_RETURN(raw.st_size, reader.ReadU64());
    Symbol sym;
    if (raw.st_name != 0) {
      LAPIS_ASSIGN_OR_RETURN(sym.name, names.ReadCStringAt(raw.st_name));
    }
    sym.value = raw.st_value;
    sym.size = raw.st_size;
    sym.info = raw.st_info;
    sym.shndx = raw.st_shndx;
    out.push_back(std::move(sym));
  }
  return Status::Ok();
}

}  // namespace

Result<ElfImage> ElfReader::Parse(std::span<const uint8_t> bytes) {
  ElfImage image;
  image.file_.assign(bytes.begin(), bytes.end());
  std::span<const uint8_t> file(image.file_);
  ByteReader reader(file);

  LAPIS_ASSIGN_OR_RETURN(Ehdr ehdr, ParseEhdr(reader));
  image.type_ = ehdr.e_type;
  image.entry_ = ehdr.e_entry;

  // ---- Program headers ----
  if (ehdr.e_phoff != 0 && ehdr.e_phnum != 0) {
    LAPIS_RETURN_IF_ERROR(reader.Seek(ehdr.e_phoff));
    image.segments_.reserve(ehdr.e_phnum);
    for (uint16_t i = 0; i < ehdr.e_phnum; ++i) {
      Segment segment;
      LAPIS_ASSIGN_OR_RETURN(segment.type, reader.ReadU32());
      LAPIS_ASSIGN_OR_RETURN(segment.flags, reader.ReadU32());
      LAPIS_ASSIGN_OR_RETURN(segment.offset, reader.ReadU64());
      LAPIS_ASSIGN_OR_RETURN(segment.vaddr, reader.ReadU64());
      uint64_t paddr = 0;
      LAPIS_ASSIGN_OR_RETURN(paddr, reader.ReadU64());
      (void)paddr;
      LAPIS_ASSIGN_OR_RETURN(segment.filesz, reader.ReadU64());
      LAPIS_ASSIGN_OR_RETURN(segment.memsz, reader.ReadU64());
      LAPIS_ASSIGN_OR_RETURN(segment.align, reader.ReadU64());
      image.segments_.push_back(segment);
    }
  }

  // ---- Section headers ----
  if (ehdr.e_shoff == 0 || ehdr.e_shnum == 0) {
    return CorruptDataError("missing section headers");
  }
  std::vector<Shdr> shdrs;
  shdrs.reserve(ehdr.e_shnum);
  LAPIS_RETURN_IF_ERROR(reader.Seek(ehdr.e_shoff));
  for (uint16_t i = 0; i < ehdr.e_shnum; ++i) {
    LAPIS_ASSIGN_OR_RETURN(Shdr h, ParseShdr(reader));
    shdrs.push_back(h);
  }
  if (ehdr.e_shstrndx >= shdrs.size()) {
    return CorruptDataError("e_shstrndx out of range");
  }
  const Shdr& shstr = shdrs[ehdr.e_shstrndx];
  if (!RangeWithin(shstr.sh_offset, shstr.sh_size, 0, file.size())) {
    return CorruptDataError("shstrtab out of bounds");
  }
  ByteReader shstr_reader(file.subspan(shstr.sh_offset, shstr.sh_size));

  image.sections_.reserve(shdrs.size());
  for (const Shdr& h : shdrs) {
    Section s;
    LAPIS_ASSIGN_OR_RETURN(s.name, shstr_reader.ReadCStringAt(h.sh_name));
    s.type = h.sh_type;
    s.flags = h.sh_flags;
    s.addr = h.sh_addr;
    s.offset = h.sh_offset;
    s.size = h.sh_size;
    s.link = h.sh_link;
    s.entsize = h.sh_entsize;
    if (h.sh_type != kShtNull && h.sh_type != kShtNobits && h.sh_size > 0) {
      if (!RangeWithin(h.sh_offset, h.sh_size, 0, file.size())) {
        return CorruptDataError("section '" + s.name + "' out of bounds");
      }
      s.data = file.subspan(h.sh_offset, h.sh_size);
    }
    image.sections_.push_back(std::move(s));
  }

  // ---- Symbol tables ----
  for (size_t i = 0; i < image.sections_.size(); ++i) {
    const Section& s = image.sections_[i];
    if (s.type == kShtSymtab) {
      LAPIS_RETURN_IF_ERROR(ParseSymbols(image, s, s.link, image.symtab_));
    } else if (s.type == kShtDynsym) {
      LAPIS_RETURN_IF_ERROR(ParseSymbols(image, s, s.link, image.dynsym_));
    }
  }

  // ---- Dynamic section (DT_NEEDED, DT_SONAME) ----
  const Section* dynamic = image.FindSection(".dynamic");
  const Section* dynstr = image.FindSection(".dynstr");
  if (dynamic != nullptr && dynstr != nullptr) {
    ByteReader dyn_reader(dynamic->data);
    ByteReader str_reader(dynstr->data);
    size_t count = dynamic->data.size() / kDynSize;
    for (size_t i = 0; i < count; ++i) {
      LAPIS_ASSIGN_OR_RETURN(int64_t tag, dyn_reader.ReadI64());
      LAPIS_ASSIGN_OR_RETURN(uint64_t val, dyn_reader.ReadU64());
      if (tag == kDtNull) {
        break;
      }
      if (tag == kDtNeeded) {
        LAPIS_ASSIGN_OR_RETURN(std::string name, str_reader.ReadCStringAt(val));
        image.needed_.push_back(std::move(name));
      } else if (tag == kDtSoname) {
        LAPIS_ASSIGN_OR_RETURN(image.soname_, str_reader.ReadCStringAt(val));
      }
    }
  }

  // ---- PLT resolution ----
  // Each PLT stub is 16 bytes starting with `ff 25 rel32` (jmp *[rip+disp]);
  // the GOT slot it dereferences carries an R_X86_64_JUMP_SLOT relocation
  // naming the imported symbol. Stubs map to dynsym indices once here, in
  // vaddr order, so a call target is one binary search away from its import.
  const Section* plt = image.FindSection(".plt");
  const Section* relaplt = image.FindSection(".rela.plt");
  if (plt != nullptr && relaplt != nullptr && !image.dynsym_.empty()) {
    // (GOT slot vaddr, dynsym index), sorted by slot; of two relocations
    // for one slot the later wins.
    std::vector<std::pair<uint64_t, uint32_t>> got_slots;
    ByteReader rela_reader(relaplt->data);
    size_t rela_count = relaplt->data.size() / kRelaSize;
    got_slots.reserve(rela_count);
    for (size_t i = 0; i < rela_count; ++i) {
      LAPIS_ASSIGN_OR_RETURN(uint64_t r_offset, rela_reader.ReadU64());
      LAPIS_ASSIGN_OR_RETURN(uint64_t r_info, rela_reader.ReadU64());
      LAPIS_ASSIGN_OR_RETURN(int64_t r_addend, rela_reader.ReadI64());
      (void)r_addend;
      if (RType(r_info) == kRX8664JumpSlot) {
        got_slots.emplace_back(r_offset, RSym(r_info));
      }
    }
    auto by_slot = [](const std::pair<uint64_t, uint32_t>& a,
                      const std::pair<uint64_t, uint32_t>& b) {
      return a.first < b.first;
    };
    if (!std::is_sorted(got_slots.begin(), got_slots.end(), by_slot)) {
      std::stable_sort(got_slots.begin(), got_slots.end(), by_slot);
    }
    const std::span<const uint8_t> stubs = plt->data;
    for (uint64_t off = 0; off + 6 <= stubs.size(); off += 16) {
      const uint8_t* stub = stubs.data() + off;
      if (stub[0] != 0xff || stub[1] != 0x25) {
        continue;
      }
      int32_t disp = static_cast<int32_t>(
          static_cast<uint32_t>(stub[2]) | static_cast<uint32_t>(stub[3]) << 8 |
          static_cast<uint32_t>(stub[4]) << 16 |
          static_cast<uint32_t>(stub[5]) << 24);
      uint64_t stub_vaddr = plt->addr + off;
      uint64_t got_vaddr = stub_vaddr + 6 + static_cast<uint64_t>(
          static_cast<int64_t>(disp));
      auto it = std::upper_bound(
          got_slots.begin(), got_slots.end(), std::make_pair(got_vaddr, 0u),
          by_slot);
      if (it == got_slots.begin() || std::prev(it)->first != got_vaddr) {
        continue;
      }
      const uint32_t symbol = std::prev(it)->second;
      if (symbol >= image.dynsym_.size()) {
        return CorruptDataError("rela.plt symbol index out of range");
      }
      image.plt_entries_.push_back(PltEntry{stub_vaddr, symbol});
    }
    // Stub vaddrs ascend unless the section's address range wraps.
    auto by_vaddr = [](const PltEntry& a, const PltEntry& b) {
      return a.plt_vaddr < b.plt_vaddr;
    };
    if (!std::is_sorted(image.plt_entries_.begin(), image.plt_entries_.end(),
                        by_vaddr)) {
      std::sort(image.plt_entries_.begin(), image.plt_entries_.end(),
                by_vaddr);
    }
  }

  return image;
}

Result<ElfImage> ElfReader::ParseFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return IoError("cannot open " + path);
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[65536];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return Parse(bytes);
}

}  // namespace lapis::elf
