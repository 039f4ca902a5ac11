#include "src/codegen/function_builder.h"

#include "src/util/bytes.h"

namespace lapis::codegen {

void FunctionBuilder::PutU32(uint32_t v) {
  uint8_t le[4];
  StoreLittleEndian(le, v);
  body_.insert(body_.end(), le, le + 4);
}

void FunctionBuilder::EmitRexIfNeeded(uint8_t reg) {
  if (reg >= 8) {
    PutU8(0x41);  // REX.B
  }
}

void FunctionBuilder::EmitPrologue() {
  PushReg(disasm::kRbp);
  // mov rbp, rsp: REX.W 89 /r, mod=11 reg=rsp rm=rbp
  PutU8(0x48);
  PutU8(0x89);
  PutU8(0xe5);
}

void FunctionBuilder::EmitEpilogue() {
  PopReg(disasm::kRbp);
  Ret();
}

void FunctionBuilder::MovRegImm32(uint8_t reg, uint32_t imm) {
  EmitRexIfNeeded(reg);
  PutU8(static_cast<uint8_t>(0xb8 + (reg & 7)));
  PutU32(imm);
}

void FunctionBuilder::XorRegReg(uint8_t reg) {
  if (reg >= 8) {
    PutU8(0x45);  // REX.R | REX.B
  }
  PutU8(0x31);
  PutU8(static_cast<uint8_t>(0xc0 | ((reg & 7) << 3) | (reg & 7)));
}

void FunctionBuilder::MovRegReg(uint8_t dst, uint8_t src) {
  uint8_t rex = 0x48;
  if (src >= 8) {
    rex |= 0x04;  // REX.R extends modrm.reg (source for 89 /r)
  }
  if (dst >= 8) {
    rex |= 0x01;  // REX.B extends modrm.rm (dest for 89 /r)
  }
  PutU8(rex);
  PutU8(0x89);
  PutU8(static_cast<uint8_t>(0xc0 | ((src & 7) << 3) | (dst & 7)));
}

void FunctionBuilder::LeaRodata(uint8_t reg, uint32_t rodata_offset) {
  uint8_t rex = 0x48;
  if (reg >= 8) {
    rex |= 0x04;
  }
  PutU8(rex);
  PutU8(0x8d);
  PutU8(static_cast<uint8_t>(0x05 | ((reg & 7) << 3)));  // mod=00 rm=101
  relocs_.push_back(elf::TextReloc{elf::TextReloc::Kind::kRodataRef,
                                   static_cast<uint32_t>(body_.size()),
                                   rodata_offset});
  PutU32(0);  // patched by ElfBuilder
}

void FunctionBuilder::Syscall() {
  PutU8(0x0f);
  PutU8(0x05);
}

void FunctionBuilder::Int80() {
  PutU8(0xcd);
  PutU8(0x80);
}

void FunctionBuilder::Sysenter() {
  PutU8(0x0f);
  PutU8(0x34);
}

void FunctionBuilder::CallImport(uint32_t import_index) {
  PutU8(0xe8);
  relocs_.push_back(elf::TextReloc{elf::TextReloc::Kind::kPltCall,
                                   static_cast<uint32_t>(body_.size()),
                                   import_index});
  PutU32(0);
}

void FunctionBuilder::CallLocal(uint32_t function_index) {
  PutU8(0xe8);
  relocs_.push_back(elf::TextReloc{elf::TextReloc::Kind::kLocalCall,
                                   static_cast<uint32_t>(body_.size()),
                                   function_index});
  PutU32(0);
}

void FunctionBuilder::TailJmpImport(uint32_t import_index) {
  PutU8(0xe9);
  relocs_.push_back(elf::TextReloc{elf::TextReloc::Kind::kPltCall,
                                   static_cast<uint32_t>(body_.size()),
                                   import_index});
  PutU32(0);
}

void FunctionBuilder::JccShortForward(uint8_t cc, uint8_t skip) {
  PutU8(static_cast<uint8_t>(0x70 | (cc & 0x0f)));
  PutU8(skip);
}

void FunctionBuilder::PushReg(uint8_t reg) {
  EmitRexIfNeeded(reg);
  PutU8(static_cast<uint8_t>(0x50 + (reg & 7)));
}

void FunctionBuilder::PopReg(uint8_t reg) {
  EmitRexIfNeeded(reg);
  PutU8(static_cast<uint8_t>(0x58 + (reg & 7)));
}

void FunctionBuilder::SubRspImm8(uint8_t imm) {
  PutU8(0x48);
  PutU8(0x83);
  PutU8(0xec);
  PutU8(imm);
}

void FunctionBuilder::AddRspImm8(uint8_t imm) {
  PutU8(0x48);
  PutU8(0x83);
  PutU8(0xc4);
  PutU8(imm);
}

void FunctionBuilder::Nop(int count) {
  if (count > 0) {
    body_.insert(body_.end(), static_cast<size_t>(count), 0x90);
  }
}

void FunctionBuilder::Ret() { PutU8(0xc3); }

void FunctionBuilder::MovRegImm32Obfuscated(uint8_t reg, uint32_t final_value) {
  // mov reg, value-1; add reg, 1 — the add is an arithmetic step our
  // back-tracker (like the paper's) deliberately refuses to follow.
  MovRegImm32(reg, final_value - 1);
  EmitRexIfNeeded(reg);
  PutU8(0x83);  // group1 r/m32, imm8
  PutU8(static_cast<uint8_t>(0xc0 | (reg & 7)));  // /0 = add
  PutU8(1);
}

elf::FunctionDef FunctionBuilder::Finish(bool exported) {
  elf::FunctionDef def;
  def.name = std::move(name_);
  def.body = std::move(body_);
  def.exported = exported;
  def.relocs = std::move(relocs_);
  return def;
}

}  // namespace lapis::codegen
