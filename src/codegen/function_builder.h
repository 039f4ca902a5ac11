// x86-64 machine-code emission for synthetic binaries.
//
// FunctionBuilder assembles one function body: real instruction encodings
// with symbolic relocations for PLT calls, local calls, and rip-relative
// .rodata references. The output FunctionDef feeds elf::ElfBuilder; the bytes
// must round-trip through disasm::DecodeOne (tests enforce this).

#ifndef LAPIS_SRC_CODEGEN_FUNCTION_BUILDER_H_
#define LAPIS_SRC_CODEGEN_FUNCTION_BUILDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/disasm/insn.h"
#include "src/elf/elf_builder.h"

namespace lapis::codegen {

class FunctionBuilder {
 public:
  // Reserves room for a typical body up front: short ones never regrow.
  explicit FunctionBuilder(std::string name) : name_(std::move(name)) {
    body_.reserve(kBodyReserve);
  }

  // push rbp; mov rbp, rsp
  void EmitPrologue();
  // pop rbp; ret
  void EmitEpilogue();

  // mov r32, imm32 (b8+r, REX.B for r8d-r15d). Zero-extends into the full
  // 64-bit register, which is how compilers materialize syscall numbers and
  // opcode constants.
  void MovRegImm32(uint8_t reg, uint32_t imm);

  // xor r32, r32 — the canonical zeroing idiom.
  void XorRegReg(uint8_t reg);

  // mov r64, r64 (REX.W 89 /r).
  void MovRegReg(uint8_t dst, uint8_t src);

  // lea r64, [rip + disp32] referencing .rodata at `rodata_offset`.
  void LeaRodata(uint8_t reg, uint32_t rodata_offset);

  void Syscall();   // 0f 05
  void Int80();     // cd 80
  void Sysenter();  // 0f 34

  // call rel32 through the PLT slot of `import_index`.
  void CallImport(uint32_t import_index);
  // call rel32 to another function in the same binary.
  void CallLocal(uint32_t function_index);
  // jmp rel32 through the PLT slot of `import_index` — the tail-call
  // forwarding idiom (`syscall(2)`-style wrappers that leave every argument
  // register untouched and jump straight into libc).
  void TailJmpImport(uint32_t import_index);

  // jcc rel8 (70+cc) skipping `skip` bytes of code emitted after it. The
  // caller emits exactly `skip` bytes next; the branch target is the first
  // instruction after them. Condition codes use the Intel encoding
  // (0x4 = e/z, 0x5 = ne/nz, ...).
  void JccShortForward(uint8_t cc, uint8_t skip);

  void PushReg(uint8_t reg);
  void PopReg(uint8_t reg);
  void SubRspImm8(uint8_t imm);
  void AddRspImm8(uint8_t imm);
  void Nop(int count = 1);
  void Ret();

  // Emits a deliberately obfuscated syscall-number load that defeats the
  // constant back-tracker (mov eax, imm; add eax, imm). Used to model the
  // paper's ~4% of call sites with undeterminable numbers.
  void MovRegImm32Obfuscated(uint8_t reg, uint32_t final_value);

  size_t size() const { return body_.size(); }

  // Consumes the builder.
  elf::FunctionDef Finish(bool exported);

 private:
  void PutU8(uint8_t b) { body_.push_back(b); }
  void PutU32(uint32_t v);
  void EmitRexIfNeeded(uint8_t reg);

  static constexpr size_t kBodyReserve = 64;

  std::string name_;
  std::vector<uint8_t> body_;
  std::vector<elf::TextReloc> relocs_;
};

}  // namespace lapis::codegen

#endif  // LAPIS_SRC_CODEGEN_FUNCTION_BUILDER_H_
