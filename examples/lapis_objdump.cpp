// lapis-objdump: disassemble an ELF binary with the lapis decoder, printing
// an objdump-style listing with resolved symbols and PLT targets. Works on
// lapis-synthesized binaries out of the box (pass no arguments for a demo)
// or on any x86-64 ELF file whose encodings fall in the supported subset.
//
// Usage:
//   ./build/examples/lapis_objdump [path-to-elf]

#include <cstdio>
#include <map>
#include <string>

#include "src/codegen/function_builder.h"
#include "src/disasm/formatter.h"
#include "src/elf/elf_builder.h"
#include "src/elf/elf_reader.h"

using namespace lapis;

namespace {

elf::ElfImage DemoBinary() {
  elf::ElfBuilder builder(elf::BinaryType::kExecutable);
  builder.AddNeeded("libc.so.6");
  uint32_t import_write = builder.AddImport("write");
  uint32_t message = builder.AddRodataString("/dev/stdout");

  codegen::FunctionBuilder greet("greet");
  greet.EmitPrologue();
  greet.LeaRodata(disasm::kRdi, message);
  greet.CallImport(import_write);
  greet.EmitEpilogue();
  uint32_t greet_index = builder.AddFunction(greet.Finish(false));

  codegen::FunctionBuilder start("_start");
  start.CallLocal(greet_index);
  start.MovRegImm32(disasm::kRax, 231);  // exit_group
  start.XorRegReg(disasm::kRdi);
  start.Syscall();
  start.Ret();
  uint32_t entry = builder.AddFunction(start.Finish(false));
  (void)builder.SetEntryFunction(entry);
  return elf::ElfReader::Parse(builder.Build().take()).take();
}

}  // namespace

int main(int argc, char** argv) {
  elf::ElfImage image;
  if (argc > 1) {
    auto parsed = elf::ElfReader::ParseFile(argv[1]);
    if (!parsed.ok()) {
      std::fprintf(stderr, "cannot parse %s: %s\n", argv[1],
                   parsed.status().ToString().c_str());
      return 1;
    }
    image = parsed.take();
  } else {
    std::printf("(no file given; disassembling a built-in demo binary)\n");
    image = DemoBinary();
  }

  // Build the symbolizer from .symtab + PLT entries.
  std::map<uint64_t, std::string> labels;
  for (const auto* sym : image.DefinedFunctions()) {
    labels[sym->value] = sym->name;
  }
  for (const auto& plt : image.plt_entries()) {
    labels[plt.plt_vaddr] = image.dynsym()[plt.symbol].name + "@plt";
  }
  auto symbolizer = [&labels](uint64_t vaddr) -> std::string {
    auto it = labels.find(vaddr);
    return it == labels.end() ? std::string() : it->second;
  };

  std::printf("\n%s:     file format elf64-x86-64\n",
              argc > 1 ? argv[1] : "<demo>");
  std::printf("entry point: 0x%llx\n",
              static_cast<unsigned long long>(image.entry()));
  for (const char* section_name : {".plt", ".text"}) {
    const elf::Section* section = image.FindSection(section_name);
    if (section == nullptr || section->size == 0) {
      continue;
    }
    std::printf("\nDisassembly of section %s:\n", section_name);
    std::fputs(
        disasm::FormatListing(section->data, section->addr, symbolizer)
            .c_str(),
        stdout);
  }
  return 0;
}
