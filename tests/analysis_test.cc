// Static-analysis tests over hand-built ELF binaries with known ground
// truth: syscall-number recovery, vectored opcodes, pseudo-path extraction,
// call-graph reachability, per-export footprints, and cross-library
// resolution.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

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

BinaryAnalysis Analyze(const ElfImage& image) {
  auto analysis = BinaryAnalyzer::Analyze(image);
  EXPECT_TRUE(analysis.ok()) << analysis.status().ToString();
  return analysis.take();
}

// Entry-point reachability alone (paper: "reachable from e_entry"): with no
// library registered, every import the reached code calls is unresolved.
LibraryResolver::Resolution EntryReach(const BinaryAnalysis& analysis) {
  return LibraryResolver().ResolveExecutable(analysis);
}

TEST(BinaryAnalyzer, RecoversDirectSyscallNumbers) {
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder fn("_start");
  fn.EmitPrologue();
  fn.MovRegImm32(disasm::kRax, 0);   // read
  fn.Syscall();
  fn.MovRegImm32(disasm::kRax, 60);  // exit
  fn.Syscall();
  fn.XorRegReg(disasm::kRax);        // read again via xor-zero
  fn.Syscall();
  fn.EmitEpilogue();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());

  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  auto reach = EntryReach(analysis);
  EXPECT_EQ(reach.footprint.syscalls, (SortedSet<int>{0, 60}));
  EXPECT_EQ(analysis.unknown_syscall_sites, 0);
  EXPECT_EQ(analysis.total_syscall_sites, 3);
}

TEST(BinaryAnalyzer, MovRegRegPropagatesSyscallNumber) {
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder fn("_start");
  fn.MovRegImm32(disasm::kRdi, 39);       // getpid into rdi
  fn.MovRegReg(disasm::kRax, disasm::kRdi);
  fn.Syscall();
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  EXPECT_EQ(EntryReach(analysis).footprint.syscalls, (SortedSet<int>{39}));
}

TEST(BinaryAnalyzer, ObfuscatedSiteCountsAsUnknown) {
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder fn("_start");
  fn.MovRegImm32Obfuscated(disasm::kRax, 1);
  fn.Syscall();
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  EXPECT_TRUE(EntryReach(analysis).footprint.syscalls.empty());
  EXPECT_EQ(analysis.unknown_syscall_sites, 1);
}

TEST(BinaryAnalyzer, VectoredOpcodesDirectSyscall) {
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder fn("_start");
  // ioctl(fd, TCGETS): rsi = 0x5401, rax = 16.
  fn.MovRegImm32(disasm::kRsi, 0x5401);
  fn.MovRegImm32(disasm::kRax, 16);
  fn.Syscall();
  // fcntl(fd, F_GETFL=3).
  fn.MovRegImm32(disasm::kRsi, 3);
  fn.MovRegImm32(disasm::kRax, 72);
  fn.Syscall();
  // prctl(PR_SET_NAME=15, ...): option in rdi.
  fn.MovRegImm32(disasm::kRdi, 15);
  fn.MovRegImm32(disasm::kRax, 157);
  fn.Syscall();
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  auto fp = EntryReach(analysis).footprint;
  EXPECT_EQ(fp.ioctl_ops, (SortedSet<uint32_t>{0x5401}));
  EXPECT_EQ(fp.fcntl_ops, (SortedSet<uint32_t>{3}));
  EXPECT_EQ(fp.prctl_ops, (SortedSet<uint32_t>{15}));
}

TEST(BinaryAnalyzer, VectoredOpcodeViaPltWrapper) {
  ElfBuilder builder(BinaryType::kExecutable);
  builder.AddNeeded("libc.so.6");
  uint32_t ioctl_imp = builder.AddImport("ioctl");
  uint32_t syscall_imp = builder.AddImport("syscall");
  FunctionBuilder fn("_start");
  fn.MovRegImm32(disasm::kRsi, 0x5413);  // TIOCGWINSZ
  fn.CallImport(ioctl_imp);
  // syscall(318): getrandom via the libc syscall() wrapper.
  fn.MovRegImm32(disasm::kRdi, 318);
  fn.CallImport(syscall_imp);
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  auto reach = EntryReach(analysis);
  EXPECT_EQ(reach.footprint.ioctl_ops, (SortedSet<uint32_t>{0x5413}));
  EXPECT_EQ(reach.footprint.syscalls, (SortedSet<int>{318}));
  EXPECT_EQ(reach.unresolved_imports,
            (std::set<std::string>{"ioctl", "syscall"}));
}

TEST(BinaryAnalyzer, UnknownOpcodeAfterClobber) {
  ElfBuilder builder(BinaryType::kExecutable);
  builder.AddNeeded("libc.so.6");
  uint32_t ioctl_imp = builder.AddImport("ioctl");
  uint32_t other_imp = builder.AddImport("foo");
  FunctionBuilder fn("_start");
  fn.MovRegImm32(disasm::kRsi, 0x5401);
  fn.CallImport(other_imp);   // clobbers rsi (caller-saved)
  fn.CallImport(ioctl_imp);   // opcode unknown here
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  auto fp = EntryReach(analysis).footprint;
  EXPECT_TRUE(fp.ioctl_ops.empty());
  EXPECT_EQ(fp.unknown_opcode_sites, 1);
}

TEST(BinaryAnalyzer, PseudoPathExtraction) {
  ElfBuilder builder(BinaryType::kExecutable);
  builder.AddNeeded("libc.so.6");
  uint32_t open_imp = builder.AddImport("open");
  uint32_t sprintf_imp = builder.AddImport("sprintf");
  uint32_t null_off = builder.AddRodataString("/dev/null");
  uint32_t tmpl_off = builder.AddRodataString("/proc/%d/cmdline");
  uint32_t etc_off = builder.AddRodataString("/etc/passwd");
  FunctionBuilder fn("_start");
  fn.LeaRodata(disasm::kRdi, null_off);
  fn.CallImport(open_imp);
  fn.LeaRodata(disasm::kRsi, tmpl_off);
  fn.CallImport(sprintf_imp);
  fn.LeaRodata(disasm::kRdi, etc_off);  // not a pseudo path
  fn.CallImport(open_imp);
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  EXPECT_EQ(EntryReach(analysis).footprint.pseudo_paths,
            (SortedSet<std::string>{"/dev/null", "/proc/%/cmdline"}));
}

TEST(BinaryAnalyzer, CallGraphReachability) {
  ElfBuilder builder(BinaryType::kExecutable);
  // helper_used: syscall 1; helper_dead: syscall 2 (never called).
  FunctionBuilder used("helper_used");
  used.MovRegImm32(disasm::kRax, 1);
  used.Syscall();
  used.Ret();
  uint32_t used_idx = builder.AddFunction(used.Finish(false));
  FunctionBuilder dead("helper_dead");
  dead.MovRegImm32(disasm::kRax, 2);
  dead.Syscall();
  dead.Ret();
  builder.AddFunction(dead.Finish(false));
  FunctionBuilder start("_start");
  start.CallLocal(used_idx);
  start.Ret();
  uint32_t start_idx = builder.AddFunction(start.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(start_idx).ok());

  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  auto reach = EntryReach(analysis);
  EXPECT_EQ(reach.footprint.syscalls, (SortedSet<int>{1}));
  EXPECT_EQ(reach.reachable_function_count, 2u);

  // Whole-binary roots find the dead helper too.
  const FunctionInfo* dead_fn = analysis.FunctionNamed("helper_dead");
  ASSERT_NE(dead_fn, nullptr);
  auto all = LibraryResolver().ResolveExecutable(
      analysis, {analysis.entry(), dead_fn->vaddr});
  EXPECT_EQ(all.footprint.syscalls, (SortedSet<int>{1, 2}));
}

TEST(BinaryAnalyzer, RecursionTerminates) {
  ElfBuilder builder(BinaryType::kExecutable);
  // f calls g, g calls f (mutual recursion).
  FunctionBuilder f("f");
  f.MovRegImm32(disasm::kRax, 3);
  f.Syscall();
  f.CallLocal(1);  // g is function index 1
  f.Ret();
  builder.AddFunction(f.Finish(false));
  FunctionBuilder g("g");
  g.CallLocal(0);
  g.Ret();
  builder.AddFunction(g.Finish(false));
  FunctionBuilder start("_start");
  start.CallLocal(0);
  start.Ret();
  uint32_t start_idx = builder.AddFunction(start.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(start_idx).ok());
  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  EXPECT_EQ(EntryReach(analysis).footprint.syscalls, (SortedSet<int>{3}));
}

TEST(BinaryAnalyzer, Int80Counted) {
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder fn("_start");
  fn.MovRegImm32(disasm::kRax, 4);
  fn.Int80();
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  auto fp = EntryReach(analysis).footprint;
  EXPECT_EQ(fp.int80_sites, 1);
  EXPECT_TRUE(fp.syscalls.empty());  // i386 numbers are not merged
  // ...but recorded separately with i386 numbering (4 = write).
  EXPECT_EQ(fp.int80_syscalls, (SortedSet<int>{4}));
}

TEST(BinaryAnalyzer, IndirectCallsCounted) {
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder fn("_start");
  fn.Nop();
  // call rax (ff d0), emitted raw.
  elf::FunctionDef def = fn.Finish(false);
  def.body.push_back(0xff);
  def.body.push_back(0xd0);
  def.body.push_back(0xc3);
  uint32_t idx = builder.AddFunction(std::move(def));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  BinaryAnalysis analysis = Analyze(Parse(builder.Build()));
  EXPECT_EQ(EntryReach(analysis).footprint.indirect_call_sites, 1);
}

TEST(BinaryAnalyzer, OptionsDisableOpcodeRecovery) {
  ElfBuilder builder(BinaryType::kExecutable);
  builder.AddNeeded("libc.so.6");
  uint32_t ioctl_imp = builder.AddImport("ioctl");
  FunctionBuilder fn("_start");
  fn.MovRegImm32(disasm::kRsi, 0x5401);
  fn.CallImport(ioctl_imp);
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto image = Parse(builder.Build());

  BinaryAnalyzer::Options options;
  options.resolve_wrapper_opcodes = false;
  auto analysis = BinaryAnalyzer::Analyze(image, options);
  ASSERT_TRUE(analysis.ok());
  auto fp = EntryReach(analysis.value()).footprint;
  EXPECT_TRUE(fp.ioctl_ops.empty());
  EXPECT_EQ(fp.unknown_opcode_sites, 0);  // not even counted
}

TEST(BinaryAnalyzer, OptionsDisablePathCollection) {
  ElfBuilder builder(BinaryType::kExecutable);
  builder.AddNeeded("libc.so.6");
  uint32_t open_imp = builder.AddImport("open");
  uint32_t path = builder.AddRodataString("/dev/null");
  FunctionBuilder fn("_start");
  fn.LeaRodata(disasm::kRdi, path);
  fn.CallImport(open_imp);
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto image = Parse(builder.Build());

  BinaryAnalyzer::Options options;
  options.collect_pseudo_paths = false;
  auto analysis = BinaryAnalyzer::Analyze(image, options);
  ASSERT_TRUE(analysis.ok());
  EXPECT_TRUE(EntryReach(analysis.value()).footprint.pseudo_paths.empty());
}

TEST(BinaryAnalyzer, TailCallThroughPltIsAnImport) {
  // jmp <plt> (a tail call) must record the import like a call would.
  ElfBuilder builder(BinaryType::kExecutable);
  builder.AddNeeded("libc.so.6");
  uint32_t imp = builder.AddImport("getpid");
  FunctionBuilder fn("_start");
  elf::FunctionDef def = fn.Finish(false);
  def.body = {0xe9, 0, 0, 0, 0};  // jmp rel32
  def.relocs.push_back(
      elf::TextReloc{elf::TextReloc::Kind::kPltCall, 1, imp});
  uint32_t idx = builder.AddFunction(std::move(def));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto image = Parse(builder.Build());
  BinaryAnalysis analysis = Analyze(image);
  EXPECT_EQ(EntryReach(analysis).unresolved_imports,
            (std::set<std::string>{"getpid"}));
}

TEST(BinaryAnalyzer, C7FormMovFeedsSyscallNumber) {
  // mov eax, imm32 via c7 /0 (compilers emit both forms).
  ElfBuilder builder(BinaryType::kExecutable);
  elf::FunctionDef def;
  def.name = "_start";
  def.body = {0xc7, 0xc0, 0x27, 0x00, 0x00, 0x00,  // mov eax, 39
              0x0f, 0x05,                          // syscall
              0xc3};
  uint32_t idx = builder.AddFunction(std::move(def));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto image = Parse(builder.Build());
  BinaryAnalysis analysis = Analyze(image);
  EXPECT_EQ(EntryReach(analysis).footprint.syscalls, (SortedSet<int>{39}));
}

TEST(BinaryAnalyzer, UndecodableFunctionMarkedIncomplete) {
  ElfBuilder builder(BinaryType::kExecutable);
  elf::FunctionDef def;
  def.name = "_start";
  def.body = {0x90, 0x06, 0x90};  // nop, invalid-in-64-bit, nop
  uint32_t idx = builder.AddFunction(std::move(def));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto image = Parse(builder.Build());
  BinaryAnalysis analysis = Analyze(image);
  const FunctionInfo* fn = analysis.FunctionNamed("_start");
  ASSERT_NE(fn, nullptr);
  EXPECT_FALSE(fn->decode_complete);
}

TEST(BinaryAnalyzer, StateResetAfterUnconditionalJump) {
  // mov rsi, imm; jmp over; ...; target: call ioctl -- the linear sweep
  // must not assume rsi still holds the constant at the jump target (it
  // may be reached from elsewhere). CFG dataflow proves the jmp is the
  // target's only predecessor, so there the constant legitimately
  // survives (the dynamic replay agrees -- a precision win, not a leak).
  ElfBuilder builder(BinaryType::kExecutable);
  builder.AddNeeded("libc.so.6");
  uint32_t ioctl_imp = builder.AddImport("ioctl");
  FunctionBuilder fn("_start");
  fn.MovRegImm32(disasm::kRsi, 0x5401);
  elf::FunctionDef def = fn.Finish(false);
  def.body.push_back(0xeb);  // jmp +0 (next insn)
  def.body.push_back(0x00);
  // call ioctl@plt
  def.body.push_back(0xe8);
  def.relocs.push_back(elf::TextReloc{
      elf::TextReloc::Kind::kPltCall,
      static_cast<uint32_t>(def.body.size()), ioctl_imp});
  for (int i = 0; i < 4; ++i) {
    def.body.push_back(0);
  }
  def.body.push_back(0xc3);
  uint32_t idx = builder.AddFunction(std::move(def));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto image = Parse(builder.Build());

  BinaryAnalyzer::Options linear;
  linear.use_dataflow = false;
  auto linear_analysis = BinaryAnalyzer::Analyze(image, linear);
  ASSERT_TRUE(linear_analysis.ok());
  auto linear_fp = EntryReach(linear_analysis.value()).footprint;
  EXPECT_TRUE(linear_fp.ioctl_ops.empty());
  EXPECT_EQ(linear_fp.unknown_opcode_sites, 1);

  BinaryAnalysis dataflow_analysis = Analyze(image);
  auto dataflow_fp = EntryReach(dataflow_analysis).footprint;
  EXPECT_EQ(dataflow_fp.ioctl_ops, (SortedSet<uint32_t>{0x5401}));
  EXPECT_EQ(dataflow_fp.unknown_opcode_sites, 0);
}

TEST(BinaryAnalyzer, ConditionalBranchNeverLeaksOnePathsConstant) {
  // mov eax, 1; je L; mov eax, 60; L: syscall -- the site executes as
  // write(1) or exit(60) depending on the flags. The historical kJccRel
  // leak reported a confident {60} here; both modes must instead count
  // the site unknown (dataflow joins 1 and 60 to top; the linear sweep
  // resets at the branch target).
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder fn("_start");
  fn.MovRegImm32(disasm::kRax, 1);
  fn.JccShortForward(0x4, 5);  // je over the 5-byte mov below
  fn.MovRegImm32(disasm::kRax, 60);
  fn.Syscall();
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto image = Parse(builder.Build());

  for (bool use_dataflow : {false, true}) {
    BinaryAnalyzer::Options options;
    options.use_dataflow = use_dataflow;
    auto analysis = BinaryAnalyzer::Analyze(image, options);
    ASSERT_TRUE(analysis.ok());
    auto fp = EntryReach(analysis.value()).footprint;
    EXPECT_TRUE(fp.syscalls.empty())
        << "use_dataflow=" << use_dataflow;
    EXPECT_EQ(fp.unknown_syscall_sites, 1)
        << "use_dataflow=" << use_dataflow;
  }
}

TEST(BinaryAnalyzer, GuardedConstantSurvivesJoinOnlyWithDataflow) {
  // mov eax, 39; jne L; nop; L: syscall -- both paths into the site carry
  // the same constant. The CFG join keeps it; the linear baseline must
  // still drop to unknown at the merge point.
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder fn("_start");
  fn.MovRegImm32(disasm::kRax, 39);
  fn.JccShortForward(0x5, 1);  // jne over the nop
  fn.Nop(1);
  fn.Syscall();
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto image = Parse(builder.Build());

  BinaryAnalysis dataflow_analysis = Analyze(image);
  EXPECT_EQ(EntryReach(dataflow_analysis).footprint.syscalls,
            (SortedSet<int>{39}));
  EXPECT_EQ(dataflow_analysis.unknown_syscall_sites, 0);

  BinaryAnalyzer::Options linear;
  linear.use_dataflow = false;
  auto linear_analysis = BinaryAnalyzer::Analyze(image, linear);
  ASSERT_TRUE(linear_analysis.ok());
  EXPECT_TRUE(EntryReach(linear_analysis.value()).footprint.syscalls.empty());
  EXPECT_EQ(linear_analysis.value().unknown_syscall_sites, 1);
}

// ---------------- Library resolution ----------------

// Builds a mini libc exporting read/write wrappers plus a "stdio" function
// that locally calls the write wrapper.
std::shared_ptr<const BinaryAnalysis> MiniLibc() {
  ElfBuilder builder(BinaryType::kSharedLibrary);
  builder.SetSoname("libmini.so");
  FunctionBuilder read_fn("read");
  read_fn.MovRegImm32(disasm::kRax, 0);
  read_fn.Syscall();
  read_fn.Ret();
  uint32_t read_idx = builder.AddFunction(read_fn.Finish(true));
  (void)read_idx;
  FunctionBuilder write_fn("write");
  write_fn.MovRegImm32(disasm::kRax, 1);
  write_fn.Syscall();
  write_fn.Ret();
  uint32_t write_idx = builder.AddFunction(write_fn.Finish(true));
  FunctionBuilder printf_fn("printf");
  printf_fn.EmitPrologue();
  printf_fn.CallLocal(write_idx);
  printf_fn.EmitEpilogue();
  builder.AddFunction(printf_fn.Finish(true));
  auto image = elf::ElfReader::Parse(builder.Build().value());
  EXPECT_TRUE(image.ok());
  auto analysis = BinaryAnalyzer::Analyze(image.value());
  EXPECT_TRUE(analysis.ok());
  return std::make_shared<BinaryAnalysis>(analysis.take());
}

// A second library whose export calls into libmini.
std::shared_ptr<const BinaryAnalysis> MiniUtilLib() {
  ElfBuilder builder(BinaryType::kSharedLibrary);
  builder.SetSoname("libutil.so");
  builder.AddNeeded("libmini.so");
  uint32_t printf_imp = builder.AddImport("printf");
  FunctionBuilder fn("util_log");
  fn.EmitPrologue();
  fn.CallImport(printf_imp);
  fn.MovRegImm32(disasm::kRax, 201);  // time
  fn.Syscall();
  fn.EmitEpilogue();
  builder.AddFunction(fn.Finish(true));
  auto image = elf::ElfReader::Parse(builder.Build().value());
  EXPECT_TRUE(image.ok());
  auto analysis = BinaryAnalyzer::Analyze(image.value());
  EXPECT_TRUE(analysis.ok());
  return std::make_shared<BinaryAnalysis>(analysis.take());
}

TEST(LibraryResolver, PerExportFootprints) {
  LibraryResolver resolver;
  ASSERT_TRUE(resolver.AddLibrary(MiniLibc()).ok());
  for (const char* symbol : {"read", "write", "printf"}) {
    EXPECT_EQ(resolver.ExporterOf(symbol), "libmini.so") << symbol;
  }
  EXPECT_EQ(resolver.ResolveFromSymbols({"read"}).footprint.syscalls,
            (SortedSet<int>{0}));
  // printf reaches write through a local call: two functions, one export.
  auto printf_reach = resolver.ResolveFromSymbols({"printf"});
  EXPECT_EQ(printf_reach.footprint.syscalls, (SortedSet<int>{1}));
  EXPECT_EQ(printf_reach.reachable_function_count, 2u);
  EXPECT_EQ(printf_reach.used_exports,
            (std::map<std::string, std::set<std::string>>{
                {"libmini.so", {"printf"}}}));
}

TEST(LibraryResolver, ResolvesTwoHopImportChain) {
  LibraryResolver resolver;
  ASSERT_TRUE(resolver.AddLibrary(MiniLibc()).ok());
  ASSERT_TRUE(resolver.AddLibrary(MiniUtilLib()).ok());

  ElfBuilder builder(BinaryType::kExecutable);
  builder.AddNeeded("libutil.so");
  uint32_t imp = builder.AddImport("util_log");
  FunctionBuilder fn("_start");
  fn.CallImport(imp);
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  ASSERT_TRUE(builder.SetEntryFunction(idx).ok());
  auto image = elf::ElfReader::Parse(builder.Build().value());
  ASSERT_TRUE(image.ok());
  auto exe = BinaryAnalyzer::Analyze(image.value());
  ASSERT_TRUE(exe.ok());

  auto resolution = resolver.ResolveExecutable(exe.value());
  // util_log -> time(201); printf -> write(1). read is never pulled in.
  EXPECT_EQ(resolution.footprint.syscalls, (SortedSet<int>{1, 201}));
  EXPECT_EQ(resolution.used_exports.at("libutil.so"),
            (std::set<std::string>{"util_log"}));
  EXPECT_EQ(resolution.used_exports.at("libmini.so"),
            (std::set<std::string>{"printf"}));
  EXPECT_TRUE(resolution.unresolved_imports.empty());
}

TEST(LibraryResolver, UnresolvedImportsReported) {
  LibraryResolver resolver;
  ASSERT_TRUE(resolver.AddLibrary(MiniLibc()).ok());
  auto resolution = resolver.ResolveFromSymbols({"printf", "nonexistent"});
  EXPECT_EQ(resolution.footprint.syscalls, (SortedSet<int>{1}));
  EXPECT_EQ(resolution.unresolved_imports,
            (std::set<std::string>{"nonexistent"}));
}

TEST(LibraryResolver, WholeLibraryClosure) {
  LibraryResolver resolver;
  auto libc = MiniLibc();
  ASSERT_TRUE(resolver.AddLibrary(libc).ok());
  auto resolution = resolver.ResolveFromSymbols(libc->exports());
  EXPECT_EQ(resolution.footprint.syscalls, (SortedSet<int>{0, 1}));
  EXPECT_EQ(resolution.used_exports.at("libmini.so").size(), 3u);
  EXPECT_TRUE(resolution.unresolved_imports.empty());
}

TEST(LibraryResolver, RejectsDuplicateAndAnonymous) {
  LibraryResolver resolver;
  ASSERT_TRUE(resolver.AddLibrary(MiniLibc()).ok());
  EXPECT_EQ(resolver.AddLibrary(MiniLibc()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(resolver.AddLibrary(nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(LibraryResolver, ExporterLookup) {
  LibraryResolver resolver;
  ASSERT_TRUE(resolver.AddLibrary(MiniLibc()).ok());
  EXPECT_EQ(resolver.ExporterOf("printf"), "libmini.so");
  EXPECT_EQ(resolver.ExporterOf("nope"), "");
}

// ---------------- Resolver closure over the import graph ----------------

// A shared library `soname` exporting `name`, which makes syscall `nr` and
// then calls each of `imports` through the PLT.
std::shared_ptr<const BinaryAnalysis> HopLib(
    const std::string& soname, const std::string& name, uint32_t nr,
    const std::vector<std::string>& imports) {
  ElfBuilder builder(BinaryType::kSharedLibrary);
  builder.SetSoname(soname);
  std::vector<uint32_t> import_ids;
  for (const std::string& symbol : imports) {
    import_ids.push_back(builder.AddImport(symbol));
  }
  FunctionBuilder fn(name);
  fn.EmitPrologue();
  fn.MovRegImm32(disasm::kRax, nr);
  fn.Syscall();
  for (uint32_t id : import_ids) {
    fn.CallImport(id);
  }
  fn.EmitEpilogue();
  builder.AddFunction(fn.Finish(true));
  return std::make_shared<BinaryAnalysis>(Analyze(Parse(builder.Build())));
}

// An executable whose entry calls each of `imports` through the PLT.
BinaryAnalysis ExeCalling(const std::vector<std::string>& imports) {
  ElfBuilder builder(BinaryType::kExecutable);
  std::vector<uint32_t> import_ids;
  for (const std::string& symbol : imports) {
    import_ids.push_back(builder.AddImport(symbol));
  }
  FunctionBuilder fn("_start");
  for (uint32_t id : import_ids) {
    fn.CallImport(id);
  }
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  EXPECT_TRUE(builder.SetEntryFunction(idx).ok());
  return Analyze(Parse(builder.Build()));
}

TEST(LibraryResolver, ImportCycleAcrossLibrariesSharesFootprint) {
  // ping imports pong; pong imports ping.
  LibraryResolver resolver;
  ASSERT_TRUE(
      resolver.AddLibrary(HopLib("libping.so", "ping", 1, {"pong"})).ok());
  ASSERT_TRUE(
      resolver.AddLibrary(HopLib("libpong.so", "pong", 2, {"ping"})).ok());
  for (const char* root : {"ping", "pong"}) {
    auto resolution = resolver.ResolveFromSymbols({root});
    EXPECT_EQ(resolution.footprint.syscalls, (SortedSet<int>{1, 2})) << root;
    EXPECT_EQ(resolution.used_exports.size(), 2u) << root;
    EXPECT_EQ(resolution.reachable_function_count, 2u) << root;
    EXPECT_TRUE(resolution.unresolved_imports.empty()) << root;
  }
}

TEST(LibraryResolver, DiamondImportsResolveEachExportOnce) {
  // exe -> {left, right} -> base.
  LibraryResolver resolver;
  ASSERT_TRUE(
      resolver.AddLibrary(HopLib("libleft.so", "left", 10, {"base"})).ok());
  ASSERT_TRUE(
      resolver.AddLibrary(HopLib("libright.so", "right", 11, {"base"})).ok());
  ASSERT_TRUE(resolver.AddLibrary(HopLib("libbase.so", "base", 12, {})).ok());
  auto resolution = resolver.ResolveExecutable(ExeCalling({"left", "right"}));
  EXPECT_EQ(resolution.footprint.syscalls, (SortedSet<int>{10, 11, 12}));
  EXPECT_EQ(resolution.used_exports.at("libbase.so"),
            (std::set<std::string>{"base"}));
  // _start plus one function per export; the shared base counts once.
  EXPECT_EQ(resolution.reachable_function_count, 4u);
}

TEST(LibraryResolver, SelfImportAndUnreachedLibrary) {
  // `again` calls itself through its own PLT slot; nothing imports `idle`.
  LibraryResolver resolver;
  ASSERT_TRUE(
      resolver.AddLibrary(HopLib("libself.so", "again", 3, {"again"})).ok());
  ASSERT_TRUE(resolver.AddLibrary(HopLib("libidle.so", "idle", 99, {})).ok());
  auto resolution = resolver.ResolveExecutable(ExeCalling({"again"}));
  EXPECT_EQ(resolution.footprint.syscalls, (SortedSet<int>{3}));
  EXPECT_EQ(resolution.used_exports,
            (std::map<std::string, std::set<std::string>>{
                {"libself.so", {"again"}}}));
  EXPECT_TRUE(resolution.unresolved_imports.empty());
}

TEST(LibraryResolver, DeepImportChainResolvesIteratively) {
  // One library whose exports each call the next through the PLT; only the
  // last makes a system call (exit_group).
  constexpr int kDepth = 20000;
  ElfBuilder builder(BinaryType::kSharedLibrary);
  builder.SetSoname("libdeep.so");
  for (int i = 0; i < kDepth; ++i) {
    FunctionBuilder fn("link_" + std::to_string(i));
    if (i + 1 < kDepth) {
      fn.TailJmpImport(builder.AddImport("link_" + std::to_string(i + 1)));
    } else {
      fn.MovRegImm32(disasm::kRax, 231);
      fn.Syscall();
      fn.Ret();
    }
    builder.AddFunction(fn.Finish(true));
  }
  LibraryResolver resolver;
  ASSERT_TRUE(resolver
                  .AddLibrary(std::make_shared<BinaryAnalysis>(
                      Analyze(Parse(builder.Build()))))
                  .ok());
  auto resolution = resolver.ResolveExecutable(ExeCalling({"link_0"}));
  EXPECT_EQ(resolution.footprint.syscalls, (SortedSet<int>{231}));
  EXPECT_EQ(resolution.used_exports.at("libdeep.so").size(),
            static_cast<size_t>(kDepth));
  EXPECT_TRUE(resolution.unresolved_imports.empty());
}

TEST(LibraryResolver, FirstRegisteredExporterWins) {
  auto first = HopLib("libfirst.so", "dup", 1, {});
  auto second = HopLib("libsecond.so", "dup", 2, {});
  LibraryResolver resolver;
  ASSERT_TRUE(resolver.AddLibrary(first).ok());
  ASSERT_TRUE(resolver.AddLibrary(second).ok());
  EXPECT_EQ(resolver.ExporterOf("dup"), "libfirst.so");
  auto resolution = resolver.ResolveFromSymbols({"dup"});
  EXPECT_EQ(resolution.footprint.syscalls, (SortedSet<int>{1}));
  EXPECT_EQ(resolution.used_exports,
            (std::map<std::string, std::set<std::string>>{
                {"libfirst.so", {"dup"}}}));

  LibraryResolver reversed;
  ASSERT_TRUE(reversed.AddLibrary(second).ok());
  ASSERT_TRUE(reversed.AddLibrary(first).ok());
  EXPECT_EQ(reversed.ExporterOf("dup"), "libsecond.so");
  EXPECT_EQ(reversed.ResolveFromSymbols({"dup"}).footprint.syscalls,
            (SortedSet<int>{2}));
}

TEST(LibraryResolver, NameExportedTwiceRegistersItsFirstDefinition) {
  // Two exported definitions of `dup`; the lower-addressed one, which makes
  // syscall 1 and calls `open`, is the one the library registers.
  ElfBuilder builder(BinaryType::kSharedLibrary);
  builder.SetSoname("libtwice.so");
  uint32_t open_imp = builder.AddImport("open");
  FunctionBuilder first("dup");
  first.EmitPrologue();
  first.MovRegImm32(disasm::kRax, 1);
  first.Syscall();
  first.CallImport(open_imp);
  first.EmitEpilogue();
  builder.AddFunction(first.Finish(true));
  FunctionBuilder second("dup");
  second.MovRegImm32(disasm::kRax, 2);
  second.Syscall();
  second.Ret();
  builder.AddFunction(second.Finish(true));
  auto library =
      std::make_shared<BinaryAnalysis>(Analyze(Parse(builder.Build())));
  ASSERT_EQ(std::count(library->exports().begin(), library->exports().end(),
                       "dup"),
            2);

  LibraryResolver resolver;
  ASSERT_TRUE(resolver.AddLibrary(library).ok());
  auto resolution = resolver.ResolveFromSymbols({"dup"});
  EXPECT_EQ(resolution.footprint.syscalls, (SortedSet<int>{1}));
  EXPECT_EQ(resolution.reachable_function_count, 1u);
  EXPECT_EQ(resolution.unresolved_imports, (std::set<std::string>{"open"}));
  EXPECT_EQ(resolution.used_exports,
            (std::map<std::string, std::set<std::string>>{
                {"libtwice.so", {"dup"}}}));
}

TEST(LibraryResolver, VectoredOpsAndPseudoPathsFlowThroughImports) {
  ElfBuilder builder(BinaryType::kSharedLibrary);
  builder.SetSoname("libtty.so");
  uint32_t open_imp = builder.AddImport("open");
  uint32_t path = builder.AddRodataString("/dev/tty");
  FunctionBuilder fn("tty_probe");
  fn.EmitPrologue();
  fn.LeaRodata(disasm::kRdi, path);
  fn.CallImport(open_imp);
  fn.MovRegImm32(disasm::kRsi, 0x5401);  // ioctl(fd, TCGETS)
  fn.MovRegImm32(disasm::kRax, 16);
  fn.Syscall();
  fn.MovRegImm32(disasm::kRsi, 3);  // fcntl(fd, F_GETFL)
  fn.MovRegImm32(disasm::kRax, 72);
  fn.Syscall();
  fn.MovRegImm32(disasm::kRdi, 15);  // prctl(PR_SET_NAME, ...)
  fn.MovRegImm32(disasm::kRax, 157);
  fn.Syscall();
  fn.EmitEpilogue();
  builder.AddFunction(fn.Finish(true));

  LibraryResolver resolver;
  ASSERT_TRUE(resolver
                  .AddLibrary(std::make_shared<BinaryAnalysis>(
                      Analyze(Parse(builder.Build()))))
                  .ok());
  ASSERT_TRUE(resolver.AddLibrary(HopLib("libopen.so", "open", 2, {})).ok());
  auto resolution = resolver.ResolveExecutable(ExeCalling({"tty_probe"}));
  const Footprint& fp = resolution.footprint;
  EXPECT_EQ(fp.syscalls, (SortedSet<int>{2, 16, 72, 157}));
  EXPECT_EQ(fp.ioctl_ops, (SortedSet<uint32_t>{0x5401}));
  EXPECT_EQ(fp.fcntl_ops, (SortedSet<uint32_t>{3}));
  EXPECT_EQ(fp.prctl_ops, (SortedSet<uint32_t>{15}));
  EXPECT_EQ(fp.pseudo_paths, (SortedSet<std::string>{"/dev/tty"}));
  EXPECT_EQ(resolution.used_exports.at("libopen.so"),
            (std::set<std::string>{"open"}));
}

TEST(Footprint, MergeAndCounts) {
  Footprint a;
  a.syscalls = {1, 2};
  a.ioctl_ops = {0x5401};
  a.unknown_syscall_sites = 1;
  Footprint b;
  b.syscalls = {2, 3};
  b.pseudo_paths = {"/dev/null"};
  b.unknown_syscall_sites = 2;
  a.MergeFrom(b);
  EXPECT_EQ(a.syscalls, (SortedSet<int>{1, 2, 3}));
  EXPECT_EQ(a.unknown_syscall_sites, 3);
  EXPECT_EQ(a.ApiCount(), 5u);
  EXPECT_FALSE(a.Empty());
  EXPECT_TRUE(Footprint().Empty());
}

}  // namespace
}  // namespace lapis::analysis
