// x86-64 decoder tests: classification, operand extraction, length decoding
// over the broader opcode space, and linear-sweep behaviour.

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "src/disasm/decoder.h"
#include "src/disasm/insn.h"

namespace lapis::disasm {
namespace {

Insn Decode(std::vector<uint8_t> bytes, uint64_t vaddr = 0x1000) {
  auto result = DecodeOne(bytes, vaddr);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value_or(Insn{});
}

TEST(Decoder, Syscall) {
  Insn insn = Decode({0x0f, 0x05});
  EXPECT_EQ(insn.kind, InsnKind::kSyscall);
  EXPECT_EQ(insn.length, 2);
}

TEST(Decoder, Sysenter) {
  EXPECT_EQ(Decode({0x0f, 0x34}).kind, InsnKind::kSysenter);
}

TEST(Decoder, Int80) {
  Insn insn = Decode({0xcd, 0x80});
  EXPECT_EQ(insn.kind, InsnKind::kInt);
  EXPECT_EQ(insn.imm, static_cast<int64_t>(0xffffffffffffff80ULL));
  EXPECT_EQ(insn.imm & 0xff, 0x80);
}

TEST(Decoder, MovEaxImm32) {
  Insn insn = Decode({0xb8, 0x10, 0x00, 0x00, 0x00});
  EXPECT_EQ(insn.kind, InsnKind::kMovRegImm);
  EXPECT_EQ(insn.reg, kRax);
  EXPECT_EQ(insn.imm, 0x10);
  EXPECT_EQ(insn.length, 5);
}

TEST(Decoder, MovEsiImm32ZeroExtends) {
  // mov esi, 0x80045430 (a large ioctl code) stays unsigned.
  Insn insn = Decode({0xbe, 0x30, 0x54, 0x04, 0x80});
  EXPECT_EQ(insn.kind, InsnKind::kMovRegImm);
  EXPECT_EQ(insn.reg, kRsi);
  EXPECT_EQ(static_cast<uint32_t>(insn.imm), 0x80045430u);
  EXPECT_GE(insn.imm, 0);
}

TEST(Decoder, MovR9dImm32UsesRexB) {
  Insn insn = Decode({0x41, 0xb9, 0x2a, 0x00, 0x00, 0x00});
  EXPECT_EQ(insn.kind, InsnKind::kMovRegImm);
  EXPECT_EQ(insn.reg, kR9);
  EXPECT_EQ(insn.imm, 42);
}

TEST(Decoder, MovRaxImm64) {
  Insn insn = Decode(
      {0x48, 0xb8, 1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(insn.kind, InsnKind::kMovRegImm);
  EXPECT_EQ(insn.length, 10);
  EXPECT_EQ(static_cast<uint64_t>(insn.imm), 0x0807060504030201ULL);
}

TEST(Decoder, XorZeroIdiom) {
  Insn insn = Decode({0x31, 0xc0});  // xor eax, eax
  EXPECT_EQ(insn.kind, InsnKind::kXorRegReg);
  EXPECT_EQ(insn.reg, kRax);
  // xor with different registers is not a zeroing idiom.
  EXPECT_EQ(Decode({0x31, 0xc8}).kind, InsnKind::kOther);  // xor eax, ecx
}

TEST(Decoder, XorR15Zero) {
  Insn insn = Decode({0x45, 0x31, 0xff});  // xor r15d, r15d
  EXPECT_EQ(insn.kind, InsnKind::kXorRegReg);
  EXPECT_EQ(insn.reg, kR15);
}

TEST(Decoder, CallRel32Target) {
  // call +0x10 from vaddr 0x1000: target = 0x1000 + 5 + 0x10.
  Insn insn = Decode({0xe8, 0x10, 0x00, 0x00, 0x00});
  EXPECT_EQ(insn.kind, InsnKind::kCallRel32);
  EXPECT_EQ(insn.target, 0x1015u);
}

TEST(Decoder, CallNegativeDisplacement) {
  Insn insn = Decode({0xe8, 0xfb, 0xff, 0xff, 0xff});  // call -5
  EXPECT_EQ(insn.target, 0x1000u);
}

TEST(Decoder, JmpRel8AndRel32) {
  EXPECT_EQ(Decode({0xeb, 0x02}).kind, InsnKind::kJmpRel);
  EXPECT_EQ(Decode({0xeb, 0x02}).target, 0x1004u);
  EXPECT_EQ(Decode({0xe9, 0x00, 0x01, 0x00, 0x00}).target, 0x1105u);
}

TEST(Decoder, JccBothForms) {
  EXPECT_EQ(Decode({0x74, 0x05}).kind, InsnKind::kJccRel);   // je
  Insn jz = Decode({0x0f, 0x84, 0x10, 0x00, 0x00, 0x00});
  EXPECT_EQ(jz.kind, InsnKind::kJccRel);
  EXPECT_EQ(jz.target, 0x1016u);
}

TEST(Decoder, LeaRipRelative) {
  // lea rdi, [rip + 0x20]
  Insn insn = Decode({0x48, 0x8d, 0x3d, 0x20, 0x00, 0x00, 0x00});
  EXPECT_EQ(insn.kind, InsnKind::kLeaRipRel);
  EXPECT_EQ(insn.reg, kRdi);
  EXPECT_EQ(insn.target, 0x1000u + 7 + 0x20);
}

TEST(Decoder, LeaRegisterFormIsOther) {
  // lea rax, [rbx + 8] -- not rip-relative.
  Insn insn = Decode({0x48, 0x8d, 0x43, 0x08});
  EXPECT_EQ(insn.kind, InsnKind::kOther);
  EXPECT_EQ(insn.length, 4);
}

TEST(Decoder, MovRegReg) {
  Insn insn = Decode({0x48, 0x89, 0xe5});  // mov rbp, rsp
  EXPECT_EQ(insn.kind, InsnKind::kMovRegReg);
  EXPECT_EQ(insn.reg, kRbp);
  EXPECT_EQ(insn.reg2, kRsp);
  Insn insn2 = Decode({0x48, 0x8b, 0xc7});  // mov rax, rdi (8b form)
  EXPECT_EQ(insn2.kind, InsnKind::kMovRegReg);
  EXPECT_EQ(insn2.reg, kRax);
  EXPECT_EQ(insn2.reg2, kRdi);
}

TEST(Decoder, PushPopRet) {
  EXPECT_EQ(Decode({0x55}).length, 1);  // push rbp
  EXPECT_EQ(Decode({0x5d}).length, 1);  // pop rbp
  EXPECT_EQ(Decode({0xc3}).kind, InsnKind::kRet);
  EXPECT_EQ(Decode({0xc2, 0x08, 0x00}).kind, InsnKind::kRet);  // ret imm16
}

TEST(Decoder, IndirectJmpRipRelative) {
  // jmp *[rip + 0x200] -- the PLT stub form.
  Insn insn = Decode({0xff, 0x25, 0x00, 0x02, 0x00, 0x00});
  EXPECT_EQ(insn.kind, InsnKind::kJmpIndirect);
  EXPECT_EQ(insn.target, 0x1000u + 6 + 0x200);
}

TEST(Decoder, IndirectCallThroughRegister) {
  Insn insn = Decode({0xff, 0xd0});  // call rax
  EXPECT_EQ(insn.kind, InsnKind::kCallIndirect);
  EXPECT_EQ(insn.target, 0u);
}

TEST(Decoder, Nops) {
  EXPECT_EQ(Decode({0x90}).kind, InsnKind::kNop);
  // Multi-byte nop: 0f 1f 40 00.
  Insn long_nop = Decode({0x0f, 0x1f, 0x40, 0x00});
  EXPECT_EQ(long_nop.kind, InsnKind::kNop);
  EXPECT_EQ(long_nop.length, 4);
}

// ---- Length decoding over the broader map ----

struct LengthCase {
  std::vector<uint8_t> bytes;
  uint8_t length;
  const char* what;
};

// Test names carry the label, not the struct's bytes (heap pointers
// included), so they are the same in every build and run. CMake's test
// discovery leaves names with square brackets out of the list that the
// suite's ctest labels are set on, so memory operands print as <...>.
void PrintTo(const LengthCase& c, std::ostream* os) {
  for (const char* p = c.what; *p != '\0'; ++p) {
    *os << (*p == '[' ? '<' : *p == ']' ? '>' : *p);
  }
}

class LengthTest : public ::testing::TestWithParam<LengthCase> {};

TEST_P(LengthTest, DecodesLength) {
  const auto& param = GetParam();
  auto result = DecodeOne(param.bytes, 0x1000);
  ASSERT_TRUE(result.ok()) << param.what << ": "
                           << result.status().ToString();
  EXPECT_EQ(result.value().length, param.length) << param.what;
}

INSTANTIATE_TEST_SUITE_P(
    CommonEncodings, LengthTest,
    ::testing::Values(
        LengthCase{{0x01, 0xd8}, 2, "add eax, ebx"},
        LengthCase{{0x48, 0x01, 0xd8}, 3, "add rax, rbx"},
        LengthCase{{0x83, 0xc0, 0x01}, 3, "add eax, 1"},
        LengthCase{{0x48, 0x83, 0xec, 0x10}, 4, "sub rsp, 16"},
        LengthCase{{0x81, 0xc1, 0x00, 0x01, 0x00, 0x00}, 6, "add ecx, 256"},
        LengthCase{{0x05, 0x10, 0x00, 0x00, 0x00}, 5, "add eax, imm32"},
        LengthCase{{0x3c, 0x41}, 2, "cmp al, 'A'"},
        LengthCase{{0x39, 0xd8}, 2, "cmp eax, ebx"},
        LengthCase{{0x85, 0xc0}, 2, "test eax, eax"},
        LengthCase{{0x8b, 0x45, 0xfc}, 3, "mov eax, [rbp-4]"},
        LengthCase{{0x89, 0x45, 0xfc}, 3, "mov [rbp-4], eax"},
        LengthCase{{0x8b, 0x04, 0x25, 0, 0, 0, 0}, 7, "mov eax, [disp32]"},
        LengthCase{{0x8b, 0x84, 0x24, 0x80, 0, 0, 0}, 7,
                   "mov eax, [rsp+0x80] (SIB+disp32)"},
        LengthCase{{0x8b, 0x44, 0x24, 0x08}, 4, "mov eax, [rsp+8] (SIB)"},
        LengthCase{{0x8b, 0x05, 0x10, 0, 0, 0}, 6, "mov eax, [rip+0x10]"},
        LengthCase{{0xc6, 0x45, 0xff, 0x01}, 4, "mov byte [rbp-1], 1"},
        LengthCase{{0xc7, 0x45, 0xf8, 1, 0, 0, 0}, 7,
                   "mov dword [rbp-8], 1"},
        LengthCase{{0x66, 0xc7, 0x45, 0xf8, 1, 0}, 6,
                   "mov word [rbp-8], 1 (66 prefix)"},
        LengthCase{{0x0f, 0xb6, 0xc0}, 3, "movzx eax, al"},
        LengthCase{{0x0f, 0xbe, 0x06}, 3, "movsx eax, byte [rsi]"},
        LengthCase{{0x0f, 0xaf, 0xc3}, 3, "imul eax, ebx"},
        LengthCase{{0x69, 0xc0, 0x10, 0, 0, 0}, 6, "imul eax, eax, 16"},
        LengthCase{{0x6b, 0xc0, 0x10}, 3, "imul eax, eax, 16 (ib)"},
        LengthCase{{0xf7, 0xd8}, 2, "neg eax"},
        LengthCase{{0xf7, 0xc0, 1, 0, 0, 0}, 6, "test eax, 1 (group3 iz)"},
        LengthCase{{0xf6, 0xc1, 0x01}, 3, "test cl, 1 (group3 ib)"},
        LengthCase{{0xc1, 0xe0, 0x04}, 3, "shl eax, 4"},
        LengthCase{{0xd1, 0xe8}, 2, "shr eax, 1"},
        LengthCase{{0x0f, 0x94, 0xc0}, 3, "sete al"},
        LengthCase{{0x0f, 0x44, 0xc8}, 3, "cmove ecx, eax"},
        LengthCase{{0x68, 0x10, 0, 0, 0}, 5, "push imm32"},
        LengthCase{{0x6a, 0x01}, 2, "push 1"},
        LengthCase{{0x98}, 1, "cwtl"},
        LengthCase{{0xf3, 0xc3}, 2, "rep ret"},
        LengthCase{{0xf0, 0x48, 0x0f, 0xb1, 0x0e}, 5,
                   "lock cmpxchg [rsi], rcx"},
        LengthCase{{0x0f, 0xa2}, 2, "cpuid"},
        LengthCase{{0x0f, 0x31}, 2, "rdtsc"},
        LengthCase{{0x0f, 0xba, 0xe0, 0x02}, 4, "bt eax, 2"},
        LengthCase{{0x63, 0xc7}, 2, "movsxd eax, edi"},
        LengthCase{{0xa8, 0x01}, 2, "test al, 1"},
        LengthCase{{0xa9, 1, 0, 0, 0}, 5, "test eax, imm32"},
        LengthCase{{0xc9}, 1, "leave"},
        LengthCase{{0xcc}, 1, "int3"},
        LengthCase{{0xf4}, 1, "hlt"},
        LengthCase{{0xc8, 0x10, 0x00, 0x00}, 4, "enter 16, 0"},
        LengthCase{{0x66, 0x0f, 0x38, 0x17, 0xc1}, 5, "ptest xmm0, xmm1"},
        LengthCase{{0x66, 0x0f, 0x3a, 0x0f, 0xc1, 0x08}, 6,
                   "palignr xmm0, xmm1, 8"},
        LengthCase{{0x0f, 0x38, 0x00, 0x04, 0x25, 0, 0, 0, 0}, 9,
                   "pshufb mm0, [disp32]"},
        LengthCase{{0xf3, 0x0f, 0xb8, 0xc1}, 4, "popcnt eax, ecx"},
        LengthCase{{0x66, 0x0f, 0x6f, 0x45, 0x00}, 5,
                   "movdqa xmm0, [rbp]"},
        LengthCase{{0xc5, 0xf8, 0x28, 0xc1}, 4, "vmovaps xmm0, xmm1 (VEX2)"},
        LengthCase{{0xc5, 0xfc, 0x28, 0x45, 0x10}, 5,
                   "vmovaps ymm0, [rbp+16] (VEX2+disp8)"},
        LengthCase{{0xc4, 0xe2, 0x79, 0x18, 0x05, 1, 0, 0, 0}, 9,
                   "vbroadcastss xmm0, [rip+1] (VEX3 map2)"},
        LengthCase{{0xc4, 0xe3, 0x79, 0x0f, 0xc1, 0x08}, 6,
                   "vpalignr xmm0, xmm0, xmm1, 8 (VEX3 map3 imm8)"}));

TEST(Decoder, TruncatedInstructionFails) {
  EXPECT_FALSE(DecodeOne({std::vector<uint8_t>{0xb8, 0x01}}, 0).ok());
  EXPECT_FALSE(DecodeOne({std::vector<uint8_t>{0x0f}}, 0).ok());
  EXPECT_FALSE(DecodeOne({std::vector<uint8_t>{0x48}}, 0).ok());
  EXPECT_FALSE(DecodeOne({std::vector<uint8_t>{}}, 0).ok());
}

TEST(Decoder, InvalidOpcodeFails) {
  // 0x06 (push es) is invalid in 64-bit mode.
  EXPECT_FALSE(DecodeOne({std::vector<uint8_t>{0x06}}, 0).ok());
}

TEST(LinearSweep, WalksWholeFunction) {
  // mov eax, 60; xor edi, edi; syscall; ret
  std::vector<uint8_t> body = {0xb8, 0x3c, 0, 0, 0, 0x31, 0xff,
                               0x0f, 0x05, 0xc3};
  SweepResult sweep = LinearSweep(body, 0x400000);
  EXPECT_TRUE(sweep.complete);
  ASSERT_EQ(sweep.insns.size(), 4u);
  EXPECT_EQ(sweep.insns[0].kind, InsnKind::kMovRegImm);
  EXPECT_EQ(sweep.insns[1].kind, InsnKind::kXorRegReg);
  EXPECT_EQ(sweep.insns[2].kind, InsnKind::kSyscall);
  EXPECT_EQ(sweep.insns[3].kind, InsnKind::kRet);
  EXPECT_EQ(sweep.decoded_bytes, body.size());
}

TEST(LinearSweep, StopsOnUndecodable) {
  std::vector<uint8_t> body = {0x90, 0x06, 0x90};  // nop, invalid, nop
  SweepResult sweep = LinearSweep(body, 0);
  EXPECT_FALSE(sweep.complete);
  EXPECT_EQ(sweep.insns.size(), 1u);
  EXPECT_EQ(sweep.decoded_bytes, 1u);
}

TEST(Insn, ToStringRenders) {
  Insn insn = Decode({0xb8, 0x10, 0, 0, 0}, 0x401000);
  EXPECT_NE(insn.ToString().find("mov rax"), std::string::npos);
  EXPECT_NE(insn.ToString().find("401000"), std::string::npos);
}

}  // namespace
}  // namespace lapis::disasm
