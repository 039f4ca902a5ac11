// ELF64 (x86-64) binary synthesis.
//
// ElfBuilder assembles a valid ELF executable or shared library from function
// bodies produced by the code generator (src/codegen). Function bodies carry
// symbolic relocations (PLT call / local call / rodata reference) that the
// builder resolves once the final layout is known, so the code generator never
// needs to know absolute addresses.
//
// The emitted binaries carry everything the study's analysis pipeline consumes
// in real distribution binaries: .text, .rodata, .plt + .rela.plt + .got.plt,
// .dynsym/.dynstr with imports and exports, DT_NEEDED entries, and a full
// .symtab giving function boundaries.

#ifndef LAPIS_SRC_ELF_ELF_BUILDER_H_
#define LAPIS_SRC_ELF_ELF_BUILDER_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace lapis::elf {

enum class BinaryType {
  kExecutable,     // ET_EXEC, base vaddr 0x400000
  kSharedLibrary,  // ET_DYN, base vaddr 0
};

// A fix-up within a function body: a rel32 field to be patched once layout
// is final. `offset` addresses the 4-byte displacement itself (not the
// opcode), relative to the function start.
struct TextReloc {
  enum class Kind {
    kPltCall,    // target = import index returned by AddImport()
    kLocalCall,  // target = function index returned by AddFunction()
    kRodataRef,  // target = byte offset into .rodata (rip-relative lea etc.)
  };
  Kind kind;
  uint32_t offset = 0;
  uint32_t target = 0;
};

struct FunctionDef {
  std::string name;
  std::vector<uint8_t> body;
  bool exported = false;  // also placed in .dynsym as a global definition
  std::vector<TextReloc> relocs;
};

class ElfBuilder {
 public:
  explicit ElfBuilder(BinaryType type) : type_(type) {}

  // Starts a new binary of `type`, dropping everything added so far. The
  // builder's buffers keep their capacity, so one builder per thread can
  // emit a whole corpus without re-growing them.
  void Reset(BinaryType type);

  void SetSoname(std::string_view soname) { soname_ = soname; }
  void AddNeeded(std::string_view library) { needed_.emplace_back(library); }

  // Registers an imported symbol; idempotent. Returns the PLT slot index.
  uint32_t AddImport(std::string_view symbol) {
    return imports_.Intern(symbol);
  }

  // Appends raw bytes / a NUL-terminated string to .rodata; returns its
  // offset within the section.
  uint32_t AddRodata(std::span<const uint8_t> data);
  uint32_t AddRodataString(std::string_view s);

  // Adds a function (appended to .text in call order, 16-byte aligned).
  // Returns the function index used by TextReloc::kLocalCall.
  uint32_t AddFunction(FunctionDef fn);

  // Marks the executable entry point (required for kExecutable).
  Status SetEntryFunction(uint32_t function_index);

  size_t import_count() const { return imports_.size(); }
  size_t function_count() const { return functions_.size(); }

  // Writes the final ELF file bytes into `out`, replacing its contents.
  // The layout is computed first, so `out` is sized once. Building again
  // without a Reset yields the same bytes.
  Status BuildInto(std::vector<uint8_t>& out);
  Result<std::vector<uint8_t>> Build();

 private:
  // NUL-terminated names stored back to back in one buffer that starts
  // with the empty name, so it is an ELF string table as it stands, plus
  // an open-addressing index from name to id (ids count distinct names in
  // order of first sight). Clear keeps every buffer's capacity.
  class StringTable {
   public:
    StringTable() { Clear(); }
    void Clear();
    // Returns the id of `name`, appending it on first sight.
    uint32_t Intern(std::string_view name);
    // The name's offset in bytes(); 0 for the empty name, as ELF wants.
    uint32_t Add(std::string_view name) {
      return name.empty() ? 0 : offsets_[Intern(name)];
    }
    std::string_view Name(uint32_t id) const;
    size_t size() const { return offsets_.size(); }
    const std::vector<uint8_t>& bytes() const { return bytes_; }

   private:
    // Where `name` is indexed, or the empty slot it would take.
    size_t Slot(std::string_view name) const;

    std::vector<uint8_t> bytes_;
    std::vector<uint32_t> offsets_;  // id -> offset of its first byte
    std::vector<uint32_t> slots_;    // id + 1 per slot, 0 = empty
  };

  BinaryType type_;
  std::string soname_;
  std::vector<std::string> needed_;
  StringTable imports_;
  std::vector<uint8_t> rodata_;
  std::vector<FunctionDef> functions_;
  int64_t entry_function_ = -1;

  // Build scratch, kept for its capacity: the .dynstr and .strtab tables,
  // the names' offsets in them (.dynstr: needed libraries, imports, then
  // exported functions; .strtab: every function) and each function's
  // offset in .text.
  StringTable dynstr_;
  StringTable strtab_;
  std::vector<uint32_t> dynstr_names_;
  std::vector<uint32_t> strtab_names_;
  std::vector<uint64_t> text_offsets_;
};

}  // namespace lapis::elf

#endif  // LAPIS_SRC_ELF_ELF_BUILDER_H_
