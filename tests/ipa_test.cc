// Interprocedural constant back-tracking (src/analysis/ipa.h) over
// hand-built ELF binaries: wrapper-argument recovery through single- and
// multi-hop chains, tail-forwarded PLT calls, branch-guarded wrappers,
// recursion/SCC ⊤, the depth bound, and the exported-wrapper escape hatch.
// Every shape is checked against the dataflow tier to pin down what only
// the ipa tier recovers.

#include <gtest/gtest.h>

#include "src/analysis/binary_analyzer.h"
#include "src/analysis/library_resolver.h"
#include "src/codegen/function_builder.h"
#include "src/elf/elf_builder.h"
#include "src/elf/elf_reader.h"

namespace lapis::analysis {
namespace {

using codegen::FunctionBuilder;
using elf::BinaryType;
using elf::ElfBuilder;
using elf::ElfImage;

ElfImage Parse(const Result<std::vector<uint8_t>>& bytes) {
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto image = elf::ElfReader::Parse(bytes.value());
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return image.ok() ? image.take() : ElfImage();
}

BinaryAnalysis AnalyzeWith(const ElfImage& image, bool use_ipa,
                           int max_depth = 4) {
  AnalyzerOptions options;
  options.use_ipa = use_ipa;
  options.ipa_max_depth = max_depth;
  auto analysis = BinaryAnalyzer::Analyze(image, options);
  EXPECT_TRUE(analysis.ok()) << analysis.status().ToString();
  return analysis.take();
}

// Entry-point reachability alone: no library is registered.
LibraryResolver::Resolution EntryReach(const BinaryAnalysis& analysis) {
  return LibraryResolver().ResolveExecutable(analysis);
}

// _start loads `number` into rdi and calls a local syscall(2) clone
// (`mov rax, rdi; syscall`).
ElfImage SingleHopWrapperImage(int number) {
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder start("_start");
  start.EmitPrologue();
  start.MovRegImm32(disasm::kRdi, number);
  start.CallLocal(1);
  start.EmitEpilogue();
  uint32_t idx = builder.AddFunction(start.Finish(false));
  FunctionBuilder wrapper("my_syscall");
  wrapper.MovRegReg(disasm::kRax, disasm::kRdi);
  wrapper.Syscall();
  wrapper.Ret();
  builder.AddFunction(wrapper.Finish(false));
  EXPECT_TRUE(builder.SetEntryFunction(idx).ok());
  return Parse(builder.Build());
}

TEST(Ipa, SingleHopWrapperRecoveredOnlyByIpa) {
  ElfImage image = SingleHopWrapperImage(39);  // getpid

  BinaryAnalysis dataflow = AnalyzeWith(image, /*use_ipa=*/false);
  EXPECT_TRUE(EntryReach(dataflow).footprint.syscalls.empty());
  EXPECT_EQ(dataflow.total_syscall_sites, 1);
  EXPECT_EQ(dataflow.unknown_syscall_sites, 1);

  BinaryAnalysis ipa = AnalyzeWith(image, /*use_ipa=*/true);
  EXPECT_EQ(EntryReach(ipa).footprint.syscalls, (SortedSet<int>{39}));
  EXPECT_EQ(ipa.total_syscall_sites, 1);
  EXPECT_EQ(ipa.unknown_syscall_sites, 0);
  // The constant is attributed to the call site's owner, not the wrapper.
  EXPECT_EQ(ipa.FunctionNamed("_start")->local.syscalls,
            (SortedSet<int>{39}));
  EXPECT_TRUE(ipa.FunctionNamed("my_syscall")->local.syscalls.empty());
}

TEST(Ipa, MultipleCallSitesEachContributeTheirConstant) {
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder start("_start");
  start.EmitPrologue();
  start.MovRegImm32(disasm::kRdi, 0);  // read
  start.CallLocal(1);
  start.MovRegImm32(disasm::kRdi, 1);  // write
  start.CallLocal(1);
  start.EmitEpilogue();
  uint32_t idx = builder.AddFunction(start.Finish(false));
  FunctionBuilder wrapper("my_syscall");
  wrapper.MovRegReg(disasm::kRax, disasm::kRdi);
  wrapper.Syscall();
  wrapper.Ret();
  builder.AddFunction(wrapper.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());

  BinaryAnalysis ipa = AnalyzeWith(Parse(builder.Build()), /*use_ipa=*/true);
  EXPECT_EQ(EntryReach(ipa).footprint.syscalls, (SortedSet<int>{0, 1}));
  EXPECT_EQ(ipa.unknown_syscall_sites, 0);
}

TEST(Ipa, TailForwardedPltSyscallRecovered) {
  // The clone keeps the number in rdi and tail-jumps into syscall@plt —
  // the deferred site is the PLT call, resolved through the caller.
  ElfBuilder builder(BinaryType::kExecutable);
  uint32_t sys_import = builder.AddImport("syscall");
  FunctionBuilder start("_start");
  start.EmitPrologue();
  start.MovRegImm32(disasm::kRdi, 2);  // open
  start.CallLocal(1);
  start.EmitEpilogue();
  uint32_t idx = builder.AddFunction(start.Finish(false));
  FunctionBuilder wrapper("my_syscall");
  wrapper.TailJmpImport(sys_import);
  builder.AddFunction(wrapper.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  ElfImage image = Parse(builder.Build());

  BinaryAnalysis dataflow = AnalyzeWith(image, /*use_ipa=*/false);
  EXPECT_EQ(dataflow.unknown_syscall_sites, 1);

  BinaryAnalysis ipa = AnalyzeWith(image, /*use_ipa=*/true);
  EXPECT_EQ(EntryReach(ipa).footprint.syscalls, (SortedSet<int>{2}));
  EXPECT_EQ(ipa.unknown_syscall_sites, 0);
}

TEST(Ipa, TwoHopIoctlOpcodeRecovered) {
  // main -> helper1 -> helper2 -> ioctl@plt, the opcode riding rsi the
  // whole way. Needs two rounds of summary re-exposure.
  ElfBuilder builder(BinaryType::kExecutable);
  uint32_t ioctl_import = builder.AddImport("ioctl");
  FunctionBuilder start("_start");
  start.EmitPrologue();
  start.MovRegImm32(disasm::kRsi, 0x5401);  // TCGETS
  start.XorRegReg(disasm::kRdi);
  start.CallLocal(1);
  start.EmitEpilogue();
  uint32_t idx = builder.AddFunction(start.Finish(false));
  FunctionBuilder helper1("helper1");
  helper1.EmitPrologue();
  helper1.CallLocal(2);
  helper1.EmitEpilogue();
  builder.AddFunction(helper1.Finish(false));
  FunctionBuilder helper2("helper2");
  helper2.EmitPrologue();
  helper2.CallImport(ioctl_import);
  helper2.EmitEpilogue();
  builder.AddFunction(helper2.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  ElfImage image = Parse(builder.Build());

  BinaryAnalysis dataflow = AnalyzeWith(image, /*use_ipa=*/false);
  EXPECT_TRUE(EntryReach(dataflow).footprint.ioctl_ops.empty());
  EXPECT_EQ(EntryReach(dataflow).footprint.unknown_opcode_sites, 1);

  BinaryAnalysis ipa = AnalyzeWith(image, /*use_ipa=*/true);
  EXPECT_EQ(EntryReach(ipa).footprint.ioctl_ops,
            (SortedSet<uint32_t>{0x5401}));
  EXPECT_EQ(EntryReach(ipa).footprint.unknown_opcode_sites, 0);
}

TEST(Ipa, GuardedWrapperNeedsCfgJoinAndIpa) {
  // The clone carries a branch merge in front of its syscall: both paths
  // keep rax = rdi, so recovery needs the CFG join (over Arg facts) AND
  // the interprocedural resolution.
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder start("_start");
  start.EmitPrologue();
  start.MovRegImm32(disasm::kRdi, 60);  // exit
  start.CallLocal(1);
  start.EmitEpilogue();
  uint32_t idx = builder.AddFunction(start.Finish(false));
  FunctionBuilder wrapper("my_syscall");
  wrapper.MovRegReg(disasm::kRax, disasm::kRdi);
  wrapper.JccShortForward(0x5, 1);  // jne over the nop
  wrapper.Nop(1);
  wrapper.Syscall();
  wrapper.Ret();
  builder.AddFunction(wrapper.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  ElfImage image = Parse(builder.Build());

  BinaryAnalysis dataflow = AnalyzeWith(image, /*use_ipa=*/false);
  EXPECT_EQ(dataflow.unknown_syscall_sites, 1);

  BinaryAnalysis ipa = AnalyzeWith(image, /*use_ipa=*/true);
  EXPECT_EQ(EntryReach(ipa).footprint.syscalls, (SortedSet<int>{60}));
  EXPECT_EQ(ipa.unknown_syscall_sites, 0);
}

TEST(Ipa, RecursiveWrapperStaysUnknown) {
  // The wrapper calls itself before the syscall: its SCC is cyclic, so the
  // site is ⊤ even though every caller passes a constant.
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder start("_start");
  start.EmitPrologue();
  start.MovRegImm32(disasm::kRdi, 39);
  start.CallLocal(1);
  start.EmitEpilogue();
  uint32_t idx = builder.AddFunction(start.Finish(false));
  FunctionBuilder wrapper("my_syscall");
  wrapper.EmitPrologue();
  wrapper.CallLocal(1);  // self edge
  wrapper.MovRegReg(disasm::kRax, disasm::kRdi);
  wrapper.Syscall();
  wrapper.EmitEpilogue();
  builder.AddFunction(wrapper.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());

  BinaryAnalysis ipa = AnalyzeWith(Parse(builder.Build()), /*use_ipa=*/true);
  EXPECT_TRUE(EntryReach(ipa).footprint.syscalls.empty());
  EXPECT_EQ(ipa.unknown_syscall_sites, 1);
}

TEST(Ipa, MutuallyRecursiveWrappersStayUnknown) {
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder start("_start");
  start.EmitPrologue();
  start.MovRegImm32(disasm::kRdi, 39);
  start.CallLocal(1);
  start.EmitEpilogue();
  uint32_t idx = builder.AddFunction(start.Finish(false));
  FunctionBuilder a("wrap_a");
  a.EmitPrologue();
  a.CallLocal(2);
  a.MovRegReg(disasm::kRax, disasm::kRdi);
  a.Syscall();
  a.EmitEpilogue();
  builder.AddFunction(a.Finish(false));
  FunctionBuilder b("wrap_b");
  b.EmitPrologue();
  b.CallLocal(1);
  b.EmitEpilogue();
  builder.AddFunction(b.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());

  BinaryAnalysis ipa = AnalyzeWith(Parse(builder.Build()), /*use_ipa=*/true);
  EXPECT_TRUE(EntryReach(ipa).footprint.syscalls.empty());
  EXPECT_EQ(ipa.unknown_syscall_sites, 1);
}

// _start -> forward -> clone: the constant needs one re-exposure hop
// (the clone's site surfaces in `forward`'s summary) before the top-down
// pass can resolve it at _start's call site.
ElfImage TwoHopNumberImage() {
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder start("_start");
  start.EmitPrologue();
  start.MovRegImm32(disasm::kRdi, 39);
  start.CallLocal(1);
  start.EmitEpilogue();
  uint32_t idx = builder.AddFunction(start.Finish(false));
  FunctionBuilder forward("forward");
  forward.EmitPrologue();
  forward.CallLocal(2);
  forward.EmitEpilogue();
  builder.AddFunction(forward.Finish(false));
  FunctionBuilder wrapper("my_syscall");
  wrapper.MovRegReg(disasm::kRax, disasm::kRdi);
  wrapper.Syscall();
  wrapper.Ret();
  builder.AddFunction(wrapper.Finish(false));
  EXPECT_TRUE(builder.SetEntryFunction(idx).ok());
  return Parse(builder.Build());
}

TEST(Ipa, DepthBoundCutsLongChains) {
  ElfImage image = TwoHopNumberImage();

  BinaryAnalysis deep = AnalyzeWith(image, /*use_ipa=*/true, /*max_depth=*/4);
  EXPECT_EQ(EntryReach(deep).footprint.syscalls, (SortedSet<int>{39}));
  EXPECT_EQ(deep.unknown_syscall_sites, 0);

  // max_depth=0 forbids the re-exposure hop through `forward`.
  BinaryAnalysis flat = AnalyzeWith(image, /*use_ipa=*/true, /*max_depth=*/0);
  EXPECT_TRUE(EntryReach(flat).footprint.syscalls.empty());
  EXPECT_EQ(flat.unknown_syscall_sites, 1);
}

TEST(Ipa, ExportedWrapperStaysUnknownButLocalCallerResolves) {
  // In a shared library an exported clone can be entered from outside with
  // any number — the residual exposure keeps the site unknown — yet the
  // local caller's constant is still attributed to the caller.
  ElfBuilder builder(BinaryType::kSharedLibrary);
  builder.SetSoname("libwrap.so");
  FunctionBuilder wrapper("my_syscall");
  wrapper.MovRegReg(disasm::kRax, disasm::kRdi);
  wrapper.Syscall();
  wrapper.Ret();
  builder.AddFunction(wrapper.Finish(true));
  FunctionBuilder user("user");
  user.EmitPrologue();
  user.MovRegImm32(disasm::kRdi, 1);  // write
  user.CallLocal(0);
  user.EmitEpilogue();
  builder.AddFunction(user.Finish(true));

  BinaryAnalysis ipa = AnalyzeWith(Parse(builder.Build()), /*use_ipa=*/true);
  EXPECT_EQ(ipa.FunctionNamed("user")->local.syscalls, (SortedSet<int>{1}));
  EXPECT_EQ(ipa.unknown_syscall_sites, 1);
}

TEST(Ipa, TopArgumentAtRootStaysUnknown) {
  // _start never sets rdi; the wrapper site re-exposes all the way to the
  // entry point, where the argument is genuinely outside the binary.
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder start("_start");
  start.EmitPrologue();
  start.CallLocal(1);
  start.EmitEpilogue();
  uint32_t idx = builder.AddFunction(start.Finish(false));
  FunctionBuilder wrapper("my_syscall");
  wrapper.MovRegReg(disasm::kRax, disasm::kRdi);
  wrapper.Syscall();
  wrapper.Ret();
  builder.AddFunction(wrapper.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());

  BinaryAnalysis ipa = AnalyzeWith(Parse(builder.Build()), /*use_ipa=*/true);
  EXPECT_TRUE(EntryReach(ipa).footprint.syscalls.empty());
  EXPECT_EQ(ipa.unknown_syscall_sites, 1);
}

TEST(Ipa, DirectConstantsUnchangedByIpa) {
  // A plain constant site must resolve identically in every tier; the ipa
  // pass only adds claims for deferred sites.
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder fn("_start");
  fn.MovRegImm32(disasm::kRax, 60);
  fn.Syscall();
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  ElfImage image = Parse(builder.Build());

  BinaryAnalysis dataflow = AnalyzeWith(image, /*use_ipa=*/false);
  BinaryAnalysis ipa = AnalyzeWith(image, /*use_ipa=*/true);
  EXPECT_EQ(EntryReach(ipa).footprint.syscalls,
            EntryReach(dataflow).footprint.syscalls);
  EXPECT_EQ(ipa.total_syscall_sites, dataflow.total_syscall_sites);
  EXPECT_EQ(ipa.unknown_syscall_sites, 0);
  EXPECT_EQ(dataflow.unknown_syscall_sites, 0);
}

TEST(Ipa, TotalSiteCountIdenticalAcrossTiers) {
  ElfImage image = SingleHopWrapperImage(39);
  BinaryAnalysis linear = [&] {
    AnalyzerOptions options;
    options.use_dataflow = false;
    auto analysis = BinaryAnalyzer::Analyze(image, options);
    EXPECT_TRUE(analysis.ok());
    return analysis.take();
  }();
  BinaryAnalysis dataflow = AnalyzeWith(image, /*use_ipa=*/false);
  BinaryAnalysis ipa = AnalyzeWith(image, /*use_ipa=*/true);
  EXPECT_EQ(linear.total_syscall_sites, 1);
  EXPECT_EQ(dataflow.total_syscall_sites, 1);
  EXPECT_EQ(ipa.total_syscall_sites, 1);
}

}  // namespace
}  // namespace lapis::analysis
