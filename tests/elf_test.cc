// ElfBuilder -> ElfReader round-trip tests plus corrupt-input handling.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/corpus/binary_synth.h"
#include "src/corpus/distro_spec.h"
#include "src/disasm/decoder.h"
#include "src/elf/elf_builder.h"
#include "src/elf/elf_defs.h"
#include "src/elf/elf_reader.h"
#include "src/util/bytes.h"

namespace lapis::elf {
namespace {

// A tiny function body: push rbp; mov rbp,rsp; pop rbp; ret.
std::vector<uint8_t> TinyBody() {
  return {0x55, 0x48, 0x89, 0xe5, 0x5d, 0xc3};
}

ElfImage BuildSimpleExecutable() {
  ElfBuilder builder(BinaryType::kExecutable);
  builder.AddNeeded("libc.so.6");
  uint32_t imp = builder.AddImport("read");
  FunctionDef main_fn;
  main_fn.name = "main";
  // call <plt read>; ret
  main_fn.body = {0xe8, 0, 0, 0, 0, 0xc3};
  main_fn.relocs.push_back(TextReloc{TextReloc::Kind::kPltCall, 1, imp});
  uint32_t idx = builder.AddFunction(std::move(main_fn));
  EXPECT_TRUE(builder.SetEntryFunction(idx).ok());
  auto bytes = builder.Build();
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto image = ElfReader::Parse(bytes.value());
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return image.take();
}

TEST(ElfBuilder, ExecutableHeaderFields) {
  ElfImage image = BuildSimpleExecutable();
  EXPECT_TRUE(image.IsExecutable());
  EXPECT_FALSE(image.IsSharedLibrary());
  EXPECT_NE(image.entry(), 0u);
}

TEST(ElfBuilder, SectionsPresent) {
  ElfImage image = BuildSimpleExecutable();
  for (const char* name : {".text", ".plt", ".rela.plt", ".dynsym",
                           ".dynstr", ".dynamic", ".got.plt", ".symtab",
                           ".strtab", ".shstrtab"}) {
    EXPECT_NE(image.FindSection(name), nullptr) << name;
  }
  EXPECT_EQ(image.FindSection(".nonexistent"), nullptr);
}

TEST(ElfBuilder, NeededLibraries) {
  ElfImage image = BuildSimpleExecutable();
  ASSERT_EQ(image.needed().size(), 1u);
  EXPECT_EQ(image.needed()[0], "libc.so.6");
}

TEST(ElfBuilder, PltResolvesToImportedSymbol) {
  ElfImage image = BuildSimpleExecutable();
  ASSERT_EQ(image.plt_entries().size(), 1u);
  const uint32_t symbol = image.plt_entries()[0].symbol;
  EXPECT_EQ(image.dynsym()[symbol].name, "read");
  EXPECT_EQ(image.PltSymbolAt(image.plt_entries()[0].plt_vaddr), symbol);
  EXPECT_FALSE(image.PltSymbolAt(0x1).has_value());
}

TEST(ElfBuilder, CallDisplacementPointsAtPlt) {
  ElfImage image = BuildSimpleExecutable();
  const Symbol* main_sym = nullptr;
  for (const auto* sym : image.DefinedFunctions()) {
    if (sym->name == "main") {
      main_sym = sym;
    }
  }
  ASSERT_NE(main_sym, nullptr);
  auto body = image.DataAtVaddr(main_sym->value, 6);
  ASSERT_EQ(body.size(), 6u);
  ASSERT_EQ(body[0], 0xe8);
  int32_t rel = static_cast<int32_t>(
      body[1] | body[2] << 8 | body[3] << 16 |
      static_cast<uint32_t>(body[4]) << 24);
  uint64_t target = main_sym->value + 5 + static_cast<uint64_t>(
      static_cast<int64_t>(rel));
  EXPECT_EQ(image.plt_entries()[0].plt_vaddr, target);
}

TEST(ElfBuilder, SharedLibraryExports) {
  ElfBuilder builder(BinaryType::kSharedLibrary);
  builder.SetSoname("libfoo.so.1");
  FunctionDef fn;
  fn.name = "foo_api";
  fn.body = TinyBody();
  fn.exported = true;
  builder.AddFunction(std::move(fn));
  FunctionDef internal;
  internal.name = "foo_internal";
  internal.body = TinyBody();
  builder.AddFunction(std::move(internal));

  auto bytes = builder.Build();
  ASSERT_TRUE(bytes.ok());
  auto image = ElfReader::Parse(bytes.value());
  ASSERT_TRUE(image.ok());
  EXPECT_TRUE(image.value().IsSharedLibrary());
  EXPECT_EQ(image.value().soname(), "libfoo.so.1");
  auto exports = image.value().ExportedFunctions();
  ASSERT_EQ(exports.size(), 1u);
  EXPECT_EQ(exports[0]->name, "foo_api");
  // Both functions appear in .symtab with sizes.
  auto funcs = image.value().DefinedFunctions();
  EXPECT_EQ(funcs.size(), 2u);
  for (const auto* fn_sym : funcs) {
    EXPECT_EQ(fn_sym->size, TinyBody().size());
  }
}

TEST(ElfBuilder, ImportedSymbolNames) {
  ElfBuilder builder(BinaryType::kSharedLibrary);
  builder.SetSoname("libbar.so.1");
  builder.AddImport("malloc");
  builder.AddImport("free");
  EXPECT_EQ(builder.AddImport("malloc"), 0u);  // idempotent
  FunctionDef fn;
  fn.name = "bar";
  fn.body = TinyBody();
  fn.exported = true;
  builder.AddFunction(std::move(fn));
  auto image = ElfReader::Parse(builder.Build().value());
  ASSERT_TRUE(image.ok());
  auto imports = image.value().ImportedSymbolNames();
  ASSERT_EQ(imports.size(), 2u);
  EXPECT_EQ(imports[0], "malloc");
  EXPECT_EQ(imports[1], "free");
}

TEST(ElfBuilder, RodataStringsAndCString) {
  ElfBuilder builder(BinaryType::kExecutable);
  uint32_t off1 = builder.AddRodataString("/dev/null");
  uint32_t off2 = builder.AddRodataString("/proc/%d/cmdline");
  EXPECT_NE(off1, off2);
  FunctionDef fn;
  fn.name = "_start";
  fn.body = TinyBody();
  uint32_t idx = builder.AddFunction(std::move(fn));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto image = ElfReader::Parse(builder.Build().value());
  ASSERT_TRUE(image.ok());
  auto strings = image.value().RodataStrings();
  ASSERT_EQ(strings.size(), 2u);
  EXPECT_EQ(strings[0], "/dev/null");
  EXPECT_EQ(strings[1], "/proc/%d/cmdline");

  const Section* rodata = image.value().FindSection(".rodata");
  ASSERT_NE(rodata, nullptr);
  EXPECT_EQ(image.value().CStringAtVaddr(rodata->addr + off2).value(),
            "/proc/%d/cmdline");
  EXPECT_FALSE(image.value().CStringAtVaddr(0xdead0000).has_value());
}

TEST(ElfBuilder, LocalCallRelocation) {
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionDef callee;
  callee.name = "callee";
  callee.body = TinyBody();
  uint32_t callee_idx = builder.AddFunction(std::move(callee));
  FunctionDef caller;
  caller.name = "_start";
  caller.body = {0xe8, 0, 0, 0, 0, 0xc3};
  caller.relocs.push_back(
      TextReloc{TextReloc::Kind::kLocalCall, 1, callee_idx});
  uint32_t caller_idx = builder.AddFunction(std::move(caller));
  ASSERT_TRUE(builder.SetEntryFunction(caller_idx).ok());
  auto image = ElfReader::Parse(builder.Build().value());
  ASSERT_TRUE(image.ok());

  uint64_t callee_vaddr = 0;
  uint64_t caller_vaddr = 0;
  for (const auto* sym : image.value().DefinedFunctions()) {
    if (sym->name == "callee") {
      callee_vaddr = sym->value;
    } else if (sym->name == "_start") {
      caller_vaddr = sym->value;
    }
  }
  auto body = image.value().DataAtVaddr(caller_vaddr, 6);
  int32_t rel = static_cast<int32_t>(
      body[1] | body[2] << 8 | body[3] << 16 |
      static_cast<uint32_t>(body[4]) << 24);
  EXPECT_EQ(caller_vaddr + 5 + static_cast<uint64_t>(
                static_cast<int64_t>(rel)),
            callee_vaddr);
}

TEST(ElfBuilder, EntryRequiredForExecutable) {
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionDef fn;
  fn.name = "f";
  fn.body = TinyBody();
  builder.AddFunction(std::move(fn));
  EXPECT_EQ(builder.Build().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ElfBuilder, RelocationBoundsValidated) {
  // 100 is plainly past the 6-byte body. The last four would pass a 32-bit
  // `offset + 4` check by wrapping, and the patch would then write about
  // 4 GiB past .text. The import keeps the target valid, so the offset
  // check is the only one that can reject them.
  for (uint32_t offset : {100u, 0xfffffffcu, 0xfffffffdu, 0xfffffffeu,
                          0xffffffffu}) {
    ElfBuilder builder(BinaryType::kExecutable);
    builder.AddImport("read");
    FunctionDef fn;
    fn.name = "_start";
    fn.body = TinyBody();
    fn.relocs.push_back(TextReloc{TextReloc::Kind::kPltCall, offset, 0});
    uint32_t idx = builder.AddFunction(std::move(fn));
    ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
    EXPECT_EQ(builder.Build().status().code(), StatusCode::kInvalidArgument)
        << offset;
  }
}

// An executable with every kind of relocation, rodata and a needed list.
void AddExecutable(ElfBuilder& builder) {
  builder.AddNeeded("libc.so.6");
  builder.AddNeeded("libfoo.so.1");
  const uint32_t read = builder.AddImport("read");
  const uint32_t path = builder.AddRodataString("/proc/self/maps");
  FunctionDef start;
  start.name = "_start";
  // call <plt read>; lea rdi, [rip + path]; call main; ret
  start.body = {0xe8, 0, 0, 0, 0, 0x48, 0x8d, 0x3d, 0, 0, 0, 0,
                0xe8, 0, 0, 0, 0, 0xc3};
  start.relocs = {{TextReloc::Kind::kPltCall, 1, read},
                  {TextReloc::Kind::kRodataRef, 8, path},
                  {TextReloc::Kind::kLocalCall, 13, 1}};
  const uint32_t entry = builder.AddFunction(std::move(start));
  FunctionDef main_fn;
  main_fn.name = "main";
  main_fn.body = TinyBody();
  builder.AddFunction(std::move(main_fn));
  ASSERT_TRUE(builder.SetEntryFunction(entry).ok());
}

// A library with enough imports to grow the import index several times,
// a repeated import, and an import that shares its name with an export.
void AddLibrary(ElfBuilder& builder) {
  builder.SetSoname("libbig.so.2");
  builder.AddNeeded("libc.so.6");
  FunctionDef fn;
  fn.name = "shared_name";
  fn.exported = true;
  for (int i = 0; i < 300; ++i) {
    const uint32_t slot = builder.AddImport("import_" + std::to_string(i));
    fn.body.insert(fn.body.end(), {0xe8, 0, 0, 0, 0});
    fn.relocs.push_back({TextReloc::Kind::kPltCall,
                         static_cast<uint32_t>(fn.body.size() - 4), slot});
  }
  EXPECT_EQ(builder.AddImport("import_7"), 7u);
  builder.AddImport("shared_name");
  fn.body.push_back(0xc3);
  builder.AddFunction(std::move(fn));
}

TEST(ElfBuilder, ResetKeepsBytesIdentical) {
  auto fresh = [](BinaryType type, void (*add)(ElfBuilder&)) {
    ElfBuilder builder(type);
    add(builder);
    return builder.Build().take();
  };
  const std::vector<uint8_t> exe = fresh(BinaryType::kExecutable,
                                         AddExecutable);
  const std::vector<uint8_t> lib = fresh(BinaryType::kSharedLibrary,
                                         AddLibrary);
  ASSERT_TRUE(ElfReader::Parse(exe).ok());
  auto lib_image = ElfReader::Parse(lib);
  ASSERT_TRUE(lib_image.ok());
  EXPECT_EQ(lib_image.value().ImportedSymbolNames().size(), 301u);

  ElfBuilder reused(BinaryType::kExecutable);
  std::vector<uint8_t> out;
  AddExecutable(reused);
  ASSERT_TRUE(reused.BuildInto(out).ok());
  EXPECT_EQ(out, exe);
  reused.Reset(BinaryType::kSharedLibrary);
  AddLibrary(reused);
  ASSERT_TRUE(reused.BuildInto(out).ok());
  EXPECT_EQ(out, lib);
  ASSERT_TRUE(reused.BuildInto(out).ok());  // again, without a Reset
  EXPECT_EQ(out, lib);
  reused.Reset(BinaryType::kExecutable);
  AddExecutable(reused);
  ASSERT_TRUE(reused.BuildInto(out).ok());
  EXPECT_EQ(out, exe);
}

// ---------------- Reader robustness ----------------

TEST(ElfReader, RejectsBadMagic) {
  std::vector<uint8_t> garbage(128, 0x41);
  EXPECT_EQ(ElfReader::Parse(garbage).status().code(),
            StatusCode::kCorruptData);
}

TEST(ElfReader, RejectsTruncated) {
  ElfImage image = BuildSimpleExecutable();
  const auto& full = image.file_bytes();
  for (size_t cut : {4u, 16u, 63u, 100u}) {
    std::vector<uint8_t> truncated(full.begin(),
                                   full.begin() + static_cast<long>(cut));
    EXPECT_FALSE(ElfReader::Parse(truncated).ok()) << cut;
  }
}

TEST(ElfReader, Rejects32Bit) {
  ElfImage image = BuildSimpleExecutable();
  auto bytes = image.file_bytes();
  bytes[4] = 1;  // ELFCLASS32
  EXPECT_EQ(ElfReader::Parse(bytes).status().code(),
            StatusCode::kUnimplemented);
}

TEST(ElfReader, RejectsBigEndian) {
  ElfImage image = BuildSimpleExecutable();
  auto bytes = image.file_bytes();
  bytes[5] = 2;  // ELFDATA2MSB
  EXPECT_EQ(ElfReader::Parse(bytes).status().code(),
            StatusCode::kUnimplemented);
}

TEST(ElfReader, SegmentsParsed) {
  ElfImage image = BuildSimpleExecutable();
  ASSERT_EQ(image.segments().size(), 3u);  // LOAD(RX), LOAD(RW), DYNAMIC
  const Segment& rx = image.segments()[0];
  EXPECT_TRUE(rx.IsLoad());
  EXPECT_TRUE(rx.Executable());
  EXPECT_FALSE(rx.Writable());
  const Segment& rw = image.segments()[1];
  EXPECT_TRUE(rw.IsLoad());
  EXPECT_TRUE(rw.Writable());
  EXPECT_EQ(image.segments()[2].type, kPtDynamic);
}

TEST(ElfReader, LoadSegmentLookup) {
  ElfImage image = BuildSimpleExecutable();
  const Section* text = image.FindSection(".text");
  ASSERT_NE(text, nullptr);
  const Segment* segment = image.LoadSegmentFor(text->addr);
  ASSERT_NE(segment, nullptr);
  EXPECT_TRUE(segment->Executable());
  EXPECT_EQ(image.LoadSegmentFor(0xdead0000), nullptr);
}

TEST(ElfReader, BuilderLayoutValidates) {
  ElfImage image = BuildSimpleExecutable();
  EXPECT_TRUE(image.ValidateLayout().ok())
      << image.ValidateLayout().ToString();
}

TEST(ElfReader, ValidateLayoutCatchesPermissionMismatch) {
  ElfImage image = BuildSimpleExecutable();
  auto bytes = image.file_bytes();
  // Flip the first LOAD segment's X bit off (p_flags at e_phoff + 4).
  bytes[64 + 4] = kPfR;
  auto reparsed = ElfReader::Parse(bytes);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().ValidateLayout().code(),
            StatusCode::kCorruptData);
}

TEST(ElfReader, DataAtVaddrBounds) {
  ElfImage image = BuildSimpleExecutable();
  const Section* text = image.FindSection(".text");
  ASSERT_NE(text, nullptr);
  EXPECT_FALSE(image.DataAtVaddr(text->addr, text->size + 1).size() > 0);
  EXPECT_EQ(image.DataAtVaddr(text->addr, text->size).size(), text->size);
  EXPECT_TRUE(image.DataAtVaddr(0xffff0000, 1).empty());
}

// The linear PLT resolution the slot index replaced, re-derived from the
// raw sections: find the stub at `vaddr`, then the last JUMP_SLOT
// relocation of the GOT slot it jumps through.
std::optional<std::string> LinearPltCall(const ElfImage& image,
                                         uint64_t vaddr) {
  const Section* plt = image.FindSection(".plt");
  const Section* rela = image.FindSection(".rela.plt");
  if (plt == nullptr || rela == nullptr || vaddr < plt->addr) {
    return std::nullopt;
  }
  const uint64_t off = vaddr - plt->addr;
  if (off % 16 != 0 || off + 6 > plt->data.size() ||
      plt->data[off] != 0xff || plt->data[off + 1] != 0x25) {
    return std::nullopt;
  }
  int32_t disp = 0;
  for (int b = 3; b >= 0; --b) {
    disp = static_cast<int32_t>(static_cast<uint32_t>(disp) << 8 |
                                plt->data[off + 2 + static_cast<size_t>(b)]);
  }
  const uint64_t got = vaddr + 6 + static_cast<uint64_t>(int64_t{disp});
  std::optional<std::string> name;
  ByteReader reader(rela->data);
  for (size_t i = 0; i < rela->data.size() / kRelaSize; ++i) {
    const uint64_t r_offset = reader.ReadU64().value();
    const uint64_t r_info = reader.ReadU64().value();
    (void)reader.ReadU64();
    if (RType(r_info) == kRX8664JumpSlot && r_offset == got) {
      name = image.dynsym().at(RSym(r_info)).name;
    }
  }
  return name;
}

TEST(ElfReader, PltSymbolAtMatchesLinearStubScan) {
  corpus::DistroOptions options;
  options.app_package_count = 300;
  options.script_package_count = 30;
  options.data_package_count = 6;
  const corpus::DistroSpec spec = corpus::BuildDistroSpec(options).take();
  const corpus::DistroSynthesizer synthesizer(spec);
  std::vector<corpus::SynthesizedBinary> sample =
      synthesizer.CoreLibraries().take();
  for (size_t pkg = 0; pkg < spec.packages.size(); pkg += 15) {
    if (!spec.packages[pkg].data_only &&
        spec.packages[pkg].interpreter_package.empty()) {
      for (auto& binary : synthesizer.PackageBinaries(pkg).take()) {
        sample.push_back(std::move(binary));
      }
    }
  }
  size_t targets = 0;
  size_t stub_calls = 0;
  for (const auto& binary : sample) {
    const ElfImage image = ElfReader::Parse(binary.bytes).take();
    auto check = [&](uint64_t target) {
      ++targets;
      const std::optional<uint32_t> symbol = image.PltSymbolAt(target);
      const std::optional<std::string> linear = LinearPltCall(image, target);
      ASSERT_EQ(symbol.has_value(), linear.has_value())
          << binary.name << " @" << target;
      if (symbol.has_value()) {
        ++stub_calls;
        EXPECT_EQ(image.dynsym()[*symbol].name, *linear) << binary.name;
      }
    };
    // Every call and jump target in the code, and every stub's own jump.
    for (const Section& section : image.sections()) {
      if ((section.flags & kShfExecinstr) == 0) {
        continue;
      }
      for (const disasm::Insn& insn :
           disasm::LinearSweep(section.data, section.addr).insns) {
        if (insn.kind == disasm::InsnKind::kCallRel32 ||
            insn.kind == disasm::InsnKind::kJmpRel) {
          check(insn.target);
        } else if (insn.kind == disasm::InsnKind::kJmpIndirect) {
          check(insn.vaddr);
        }
      }
    }
    // Addresses that are no stub start.
    for (const auto* fn : image.DefinedFunctions()) {
      EXPECT_FALSE(image.PltSymbolAt(fn->value).has_value()) << fn->name;
    }
    for (const PltEntry& entry : image.plt_entries()) {
      for (uint64_t inside : {entry.plt_vaddr + 1, entry.plt_vaddr + 6,
                              entry.plt_vaddr + 15}) {
        EXPECT_FALSE(image.PltSymbolAt(inside).has_value()) << binary.name;
      }
    }
    EXPECT_FALSE(image.PltSymbolAt(0).has_value());
  }
  EXPECT_GT(stub_calls, sample.size());
  EXPECT_GT(targets, stub_calls);
}

}  // namespace
}  // namespace lapis::elf
