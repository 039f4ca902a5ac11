#include "src/elf/elf_image.h"

#include <algorithm>

#include "src/util/strings.h"

namespace lapis::elf {

const Segment* ElfImage::LoadSegmentFor(uint64_t vaddr) const {
  for (const auto& segment : segments_) {
    if (segment.IsLoad() && segment.ContainsVaddr(vaddr)) {
      return &segment;
    }
  }
  return nullptr;
}

Status ElfImage::ValidateLayout() const {
  for (const auto& segment : segments_) {
    if (segment.filesz > segment.memsz) {
      return CorruptDataError("segment filesz exceeds memsz");
    }
    if (!RangeWithin(segment.offset, segment.filesz, 0, file_.size())) {
      return CorruptDataError("segment extends past end of file");
    }
  }
  for (const auto& section : sections_) {
    if ((section.flags & kShfAlloc) == 0 || section.size == 0) {
      continue;
    }
    const Segment* segment = LoadSegmentFor(section.addr);
    if (segment == nullptr || !RangeWithin(section.addr, section.size,
                                           segment->vaddr, segment->memsz)) {
      return CorruptDataError("allocated section '" + section.name +
                              "' is not covered by a LOAD segment");
    }
    if ((section.flags & kShfExecinstr) != 0 && !segment->Executable()) {
      return CorruptDataError("executable section '" + section.name +
                              "' in a non-executable segment");
    }
    if ((section.flags & kShfWrite) != 0 && !segment->Writable()) {
      return CorruptDataError("writable section '" + section.name +
                              "' in a read-only segment");
    }
  }
  return Status::Ok();
}

const Section* ElfImage::FindSection(std::string_view name) const {
  for (const auto& s : sections_) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

std::vector<const Symbol*> ElfImage::DefinedFunctions() const {
  std::vector<const Symbol*> out;
  for (const auto& sym : symtab_) {
    if (sym.IsFunction() && sym.IsDefined()) {
      out.push_back(&sym);
    }
  }
  return out;
}

std::vector<const Symbol*> ElfImage::ExportedFunctions() const {
  std::vector<const Symbol*> out;
  for (const auto& sym : dynsym_) {
    if (sym.IsFunction() && sym.IsDefined() && sym.bind() == kStbGlobal) {
      out.push_back(&sym);
    }
  }
  return out;
}

std::vector<std::string> ElfImage::ImportedSymbolNames() const {
  std::vector<std::string> out;
  for (const auto& sym : dynsym_) {
    if (!sym.IsDefined() && !sym.name.empty()) {
      out.push_back(sym.name);
    }
  }
  return out;
}

std::optional<uint32_t> ElfImage::PltSymbolAt(uint64_t vaddr) const {
  auto it = std::lower_bound(
      plt_entries_.begin(), plt_entries_.end(), vaddr,
      [](const PltEntry& entry, uint64_t v) { return entry.plt_vaddr < v; });
  if (it == plt_entries_.end() || it->plt_vaddr != vaddr) {
    return std::nullopt;
  }
  return it->symbol;
}

std::span<const uint8_t> ElfImage::DataAtVaddr(uint64_t vaddr,
                                               uint64_t size) const {
  for (const auto& s : sections_) {
    if ((s.flags & kShfAlloc) == 0 || s.type == kShtNobits) {
      continue;
    }
    if (RangeWithin(vaddr, size, s.addr, s.data.size())) {
      return s.data.subspan(vaddr - s.addr, size);
    }
  }
  return {};
}

std::span<const uint8_t> ElfImage::SpanFrom(uint64_t vaddr) const {
  for (const auto& s : sections_) {
    if ((s.flags & kShfAlloc) == 0 || s.type == kShtNobits) {
      continue;
    }
    if (vaddr >= s.addr && vaddr - s.addr < s.data.size()) {
      return s.data.subspan(vaddr - s.addr);
    }
  }
  return {};
}

std::optional<std::string> ElfImage::CStringAtVaddr(uint64_t vaddr) const {
  for (const auto& s : sections_) {
    if ((s.flags & kShfAlloc) == 0 || s.type == kShtNobits) {
      continue;
    }
    if (vaddr >= s.addr && vaddr - s.addr < s.data.size()) {
      uint64_t offset = vaddr - s.addr;
      for (uint64_t i = offset; i < s.data.size(); ++i) {
        if (s.data[i] == 0) {
          return std::string(
              reinterpret_cast<const char*>(s.data.data() + offset),
              i - offset);
        }
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::vector<std::string> ElfImage::RodataStrings(size_t min_length) const {
  std::vector<std::string> out;
  for (const auto& s : sections_) {
    if (s.name != ".rodata" && s.name != ".data") {
      continue;
    }
    size_t start = 0;
    const auto& data = s.data;
    for (size_t i = 0; i <= data.size(); ++i) {
      if (i == data.size() || data[i] == 0) {
        size_t len = i - start;
        if (len >= min_length) {
          std::string candidate(
              reinterpret_cast<const char*>(data.data() + start), len);
          if (IsPrintableAscii(candidate)) {
            out.push_back(std::move(candidate));
          }
        }
        start = i + 1;
      }
    }
  }
  return out;
}

}  // namespace lapis::elf
