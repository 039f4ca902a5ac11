#include "src/corpus/binary_synth.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "src/analysis/footprint.h"
#include "src/codegen/function_builder.h"
#include "src/corpus/api_universe.h"
#include "src/corpus/syscall_table.h"
#include "src/util/prng.h"

namespace lapis::corpus {

namespace {

using codegen::FunctionBuilder;
using elf::BinaryType;
using elf::ElfBuilder;

// Emits `mov eax, nr; syscall`.
void EmitDirectSyscall(FunctionBuilder& fn, int nr) {
  fn.MovRegImm32(disasm::kRax, static_cast<uint32_t>(nr));
  fn.Syscall();
}

// Emits `mov eax, nr; jne L; nop; L: syscall` — a branch-guarded site
// (compiler error-path idiom) where every path into the syscall carries the
// same number. CFG dataflow joins the paths back to the constant; the
// linear ablation must reset at the branch target and reports the site
// unknown.
void EmitGuardedSyscall(FunctionBuilder& fn, int nr) {
  fn.MovRegImm32(disasm::kRax, static_cast<uint32_t>(nr));
  fn.JccShortForward(0x5, 1);  // jne over the nop; eax holds nr either way
  fn.Nop(1);
  fn.Syscall();
}

// Emits a direct vectored syscall with a constant opcode.
void EmitVectoredSyscall(FunctionBuilder& fn, int nr, uint8_t op_reg,
                         uint32_t op) {
  fn.MovRegImm32(op_reg, op);
  fn.MovRegImm32(disasm::kRax, static_cast<uint32_t>(nr));
  fn.Syscall();
}

std::vector<int> AttributedSyscalls(CoreLib lib) {
  std::vector<int> out;
  for (const auto& attribution : StartupAttributions()) {
    for (CoreLib member : attribution.libs) {
      if (member == lib) {
        out.push_back(attribution.syscall_nr);
        break;
      }
    }
  }
  return out;
}

// Builds one of the three small core libraries (ld.so / libpthread / librt):
// a single export performing its attributed startup syscalls.
Result<SynthesizedBinary> BuildSmallCoreLib(const char* soname,
                                            const char* export_name,
                                            CoreLib lib) {
  ElfBuilder builder(BinaryType::kSharedLibrary);
  builder.SetSoname(soname);
  FunctionBuilder fn(export_name);
  fn.EmitPrologue();
  for (int nr : AttributedSyscalls(lib)) {
    EmitDirectSyscall(fn, nr);
  }
  fn.EmitEpilogue();
  builder.AddFunction(fn.Finish(/*exported=*/true));
  LAPIS_ASSIGN_OR_RETURN(auto bytes, builder.Build());
  SynthesizedBinary binary;
  binary.name = soname;
  binary.is_library = true;
  binary.bytes = std::move(bytes);
  return binary;
}

// Expands a canonical pseudo-path ("/proc/%/cmdline") back into the
// printf-style template a binary would embed ("/proc/%d/cmdline").
std::string ExpandPseudoPath(const std::string& canonical) {
  std::string out;
  for (char c : canonical) {
    out.push_back(c);
    if (c == '%') {
      out.push_back('d');
    }
  }
  return out;
}

// The calling thread's builder, reset for a new binary. Like the
// analyzer's per-binary scratch, it keeps its buffers' capacity across
// every package the thread synthesizes.
ElfBuilder& ThreadBuilder(BinaryType type) {
  thread_local ElfBuilder builder(type);
  builder.Reset(type);
  return builder;
}

// A package's `lib`-th shared library: its soname and its one export.
std::string LibrarySoname(const PackagePlan& plan, int lib) {
  return "lib" + plan.name + std::to_string(lib) + ".so.1";
}

std::string LibraryExport(const PackagePlan& plan, int lib) {
  return plan.name + "_api_" + std::to_string(lib);
}

uint64_t HashName(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Result<std::vector<SynthesizedBinary>> DistroSynthesizer::CoreLibraries()
    const {
  std::vector<SynthesizedBinary> out;
  LAPIS_ASSIGN_OR_RETURN(
      auto ld, BuildSmallCoreLib(kLdSoname, "_dl_start", CoreLib::kLdSo));
  out.push_back(std::move(ld));
  LAPIS_ASSIGN_OR_RETURN(auto pthread,
                         BuildSmallCoreLib(kPthreadSoname, "__pthread_init",
                                           CoreLib::kLibpthread));
  out.push_back(std::move(pthread));
  LAPIS_ASSIGN_OR_RETURN(
      auto rt, BuildSmallCoreLib(kRtSoname, "__rt_init", CoreLib::kLibrt));
  out.push_back(std::move(rt));

  // ---- libc.so.6: one exported function per universe entry ----
  ElfBuilder builder(BinaryType::kSharedLibrary);
  builder.SetSoname(kLibcSoname);
  builder.AddNeeded(kLdSoname);
  builder.AddNeeded(kPthreadSoname);
  builder.AddNeeded(kRtSoname);
  uint32_t import_dl = builder.AddImport("_dl_start");
  uint32_t import_pthread = builder.AddImport("__pthread_init");
  uint32_t import_rt = builder.AddImport("__rt_init");

  const auto& universe = LibcUniverse();
  // Function index == universe index (AddFunction is called in order).
  std::map<std::string, uint32_t> index_of;
  for (uint32_t i = 0; i < universe.size(); ++i) {
    index_of.emplace(universe[i].name, i);
  }
  auto index_of_name = [&index_of](const char* name) -> int64_t {
    auto it = index_of.find(name);
    return it == index_of.end() ? -1 : static_cast<int64_t>(it->second);
  };
  const int64_t write_index = index_of_name("write");
  const int64_t read_index = index_of_name("read");
  const int64_t mmap_index = index_of_name("mmap");

  for (uint32_t i = 0; i < universe.size(); ++i) {
    const LibcSymbolSpec& spec = universe[i];
    FunctionBuilder fn(spec.name);
    if (spec.name == "__libc_start_main") {
      fn.EmitPrologue();
      for (int nr : AttributedSyscalls(CoreLib::kLibc)) {
        EmitDirectSyscall(fn, nr);
      }
      fn.CallImport(import_dl);
      fn.CallImport(import_pthread);
      fn.CallImport(import_rt);
      fn.EmitEpilogue();
    } else if (spec.wraps_syscall >= 0) {
      EmitDirectSyscall(fn, spec.wraps_syscall);
      fn.Ret();
    } else if (!spec.chk_base.empty()) {
      // Fortify variant: checks, then tail into the plain function.
      fn.EmitPrologue();
      int64_t base_index = index_of_name(spec.chk_base.c_str());
      if (base_index >= 0) {
        fn.CallLocal(static_cast<uint32_t>(base_index));
      }
      fn.EmitEpilogue();
    } else if (spec.band == LibcBand::kCommonPool ||
               spec.band == LibcBand::kUniversal) {
      fn.EmitPrologue();
      // Common functions bottom out in the universal syscall wrappers
      // (printf -> write, fread -> read, malloc -> mmap ...).
      int64_t target = -1;
      switch (i % 3) {
        case 0:
          target = write_index;
          break;
        case 1:
          target = read_index;
          break;
        default:
          target = mmap_index;
          break;
      }
      if (target >= 0 && static_cast<uint32_t>(target) != i) {
        fn.CallLocal(static_cast<uint32_t>(target));
      }
      fn.EmitEpilogue();
    } else {
      // Mid/tail/unused: pure computation.
      fn.EmitPrologue();
      fn.XorRegReg(disasm::kRax);
      fn.EmitEpilogue();
    }
    // Pad to the synthetic code size so the §3.5 size accounting is real.
    if (fn.size() < spec.code_size) {
      fn.Nop(static_cast<int>(spec.code_size - fn.size()));
    }
    elf::FunctionDef def = fn.Finish(/*exported=*/true);
    builder.AddFunction(std::move(def));
  }

  // Real libc also exports syscall(2) itself: number in rdi, forwarded to
  // rax. Kept outside the universe tables (it wraps no fixed number, so it
  // has no importance row); packages reach it only through tail-forwarding
  // wrapper clones. Its body is the canonical argument-to-number move that
  // no intra-function tier can pin down — and since the function is
  // exported, even the IPA tier must leave the site unknown here and
  // attribute numbers at the callers that pass constants.
  {
    FunctionBuilder fn("syscall");
    fn.MovRegReg(disasm::kRax, disasm::kRdi);
    fn.Syscall();
    fn.Ret();
    builder.AddFunction(fn.Finish(/*exported=*/true));
  }

  LAPIS_ASSIGN_OR_RETURN(auto bytes, builder.Build());
  SynthesizedBinary libc;
  libc.name = kLibcSoname;
  libc.is_library = true;
  libc.bytes = std::move(bytes);
  out.push_back(std::move(libc));
  return out;
}

Result<std::vector<SynthesizedBinary>> DistroSynthesizer::PackageBinaries(
    size_t package_index) const {
  LAPIS_ASSIGN_OR_RETURN(auto out, PackageLibraries(package_index));
  LAPIS_ASSIGN_OR_RETURN(auto executables, PackageExecutables(package_index));
  std::move(executables.begin(), executables.end(), std::back_inserter(out));
  return out;
}

Result<std::vector<SynthesizedBinary>> DistroSynthesizer::PackageLibraries(
    size_t package_index) const {
  if (package_index >= spec_.packages.size()) {
    return InvalidArgumentError("package index out of range");
  }
  const PackagePlan& plan = spec_.packages[package_index];
  std::vector<SynthesizedBinary> out;
  if (plan.data_only || !plan.interpreter_package.empty() ||
      plan.static_binary) {
    return out;  // no shared libraries
  }
  for (int lib = 0; lib < plan.lib_count; ++lib) {
    ElfBuilder& builder = ThreadBuilder(BinaryType::kSharedLibrary);
    builder.SetSoname(LibrarySoname(plan, lib));
    builder.AddNeeded(kLibcSoname);
    FunctionBuilder fn(LibraryExport(plan, lib));
    fn.EmitPrologue();
    // Library code leans on a couple of common libc APIs.
    fn.CallImport(builder.AddImport("strlen"));
    fn.CallImport(builder.AddImport("malloc"));
    // Table 1 pattern: the tail syscall's call site lives inside the
    // package's library, not its executable.
    if (plan.extras_via_library && lib == 0) {
      for (int nr : plan.extra_syscalls) {
        fn.CallImport(builder.AddImport(SyscallName(nr)));
      }
    }
    fn.EmitEpilogue();
    builder.AddFunction(fn.Finish(/*exported=*/true));
    SynthesizedBinary binary;
    LAPIS_RETURN_IF_ERROR(builder.BuildInto(binary.bytes));
    binary.name = LibrarySoname(plan, lib);
    binary.is_library = true;
    out.push_back(std::move(binary));
  }
  return out;
}

Result<std::vector<SynthesizedBinary>> DistroSynthesizer::PackageExecutables(
    size_t package_index) const {
  if (package_index >= spec_.packages.size()) {
    return InvalidArgumentError("package index out of range");
  }
  const PackagePlan& plan = spec_.packages[package_index];
  std::vector<SynthesizedBinary> out;
  if (plan.data_only || !plan.interpreter_package.empty()) {
    return out;  // no ELF binaries
  }
  // The libraries draw nothing from the package's stream, so emitting them
  // apart leaves every executable's bytes unchanged.
  Prng prng(spec_.options.seed ^ HashName(plan.name));
  const auto& universe = LibcUniverse();
  const auto& ioctl_ops = IoctlOps();
  const auto& fcntl_ops = FcntlOps();
  const auto& prctl_ops = PrctlOps();
  const auto& pseudo = PseudoFiles();

  // ---- Static executable: everything inline ----
  if (plan.static_binary) {
    ElfBuilder& builder = ThreadBuilder(BinaryType::kExecutable);
    FunctionBuilder start("_start");
    start.EmitPrologue();
    for (int nr : spec_.ExpectedSyscalls(package_index)) {
      EmitDirectSyscall(start, nr);
    }
    if (plan.legacy_int80) {
      // i386-numbered calls through the legacy gate: read(3), write(4),
      // open(5), exit(1).
      for (uint32_t nr : {3u, 4u, 5u, 1u}) {
        start.MovRegImm32(disasm::kRax, nr);
        start.Int80();
      }
    }
    start.EmitEpilogue();
    uint32_t entry = builder.AddFunction(start.Finish(/*exported=*/false));
    LAPIS_RETURN_IF_ERROR(builder.SetEntryFunction(entry));
    SynthesizedBinary binary;
    LAPIS_RETURN_IF_ERROR(builder.BuildInto(binary.bytes));
    binary.name = plan.name;
    binary.is_static = true;
    out.push_back(std::move(binary));
    return out;
  }

  // ---- Executables ----
  for (int exe = 0; exe < plan.exe_count; ++exe) {
    ElfBuilder& builder = ThreadBuilder(BinaryType::kExecutable);
    builder.AddNeeded(kLibcSoname);
    for (int lib = 0; lib < plan.lib_count; ++lib) {
      builder.AddNeeded(LibrarySoname(plan, lib));
    }
    uint32_t import_start_main = builder.AddImport("__libc_start_main");
    uint32_t import_cxa = builder.AddImport("__cxa_finalize");

    FunctionBuilder main_fn("main");
    main_fn.EmitPrologue();

    // Wrapper functions land at fixed indexes right after main (index 1):
    // the syscall clone first, then the two ioctl helpers.
    const bool emit_sys_wrapper = exe == 0 && plan.wrapper_syscall_calls > 0 &&
                                  plan.syscall_prefix_rank >= 1;
    const bool emit_ioctl_helpers =
        exe == 0 && plan.wrapper_two_hop_ioctl && !plan.ioctl_ranks.empty();
    const uint32_t wrapper_index = 2;
    const uint32_t helper1_index = wrapper_index + (emit_sys_wrapper ? 1u : 0u);

    if (exe == 0) {
      // Universal fortify imports: every Ubuntu-built binary carries some.
      main_fn.CallImport(builder.AddImport("__printf_chk"));
      main_fn.CallImport(builder.AddImport("__memcpy_chk"));
      if (prng.NextBool(0.30)) {
        main_fn.CallImport(builder.AddImport("memalign"));
      }
      // Common-pool sample.
      for (size_t rank : plan.libc_common_ranks) {
        main_fn.CallImport(builder.AddImport(universe[rank].name));
      }
      // Syscall prefix via libc wrappers (ranks 41..K).
      for (int r = 40; r < plan.syscall_prefix_rank &&
                       r < static_cast<int>(spec_.syscall_rank_order.size());
           ++r) {
        int nr = spec_.syscall_rank_order[static_cast<size_t>(r)];
        if (nr == analysis::kSysIoctl) {
          main_fn.MovRegImm32(disasm::kRsi, ioctl_ops[0].code);
        } else if (nr == analysis::kSysFcntl) {
          main_fn.MovRegImm32(disasm::kRsi, fcntl_ops[0].code);
        } else if (nr == analysis::kSysPrctl) {
          main_fn.MovRegImm32(disasm::kRdi, prctl_ops[0].code);
        }
        main_fn.CallImport(builder.AddImport(SyscallName(nr)));
      }
      // Dedicated tail syscalls (unless they live in the library).
      if (!plan.extras_via_library) {
        for (int nr : plan.extra_syscalls) {
          main_fn.CallImport(builder.AddImport(SyscallName(nr)));
        }
      }
      // Vectored opcodes.
      for (size_t rank : plan.ioctl_ranks) {
        main_fn.MovRegImm32(disasm::kRsi, ioctl_ops[rank].code);
        main_fn.XorRegReg(disasm::kRdi);
        main_fn.CallImport(builder.AddImport("ioctl"));
      }
      if (plan.emits_direct_syscalls && !plan.ioctl_ranks.empty()) {
        // Some binaries issue the vectored call inline rather than through
        // the libc wrapper; the opcode must be recovered either way.
        EmitVectoredSyscall(main_fn, analysis::kSysIoctl, disasm::kRsi,
                            ioctl_ops[plan.ioctl_ranks[0]].code);
      }
      for (size_t rank : plan.fcntl_ranks) {
        main_fn.MovRegImm32(disasm::kRsi, fcntl_ops[rank].code);
        main_fn.CallImport(builder.AddImport("fcntl"));
      }
      for (size_t rank : plan.prctl_ranks) {
        main_fn.MovRegImm32(disasm::kRdi, prctl_ops[rank].code);
        main_fn.CallImport(builder.AddImport("prctl"));
      }
      // Hard-coded pseudo-file paths.
      {
        std::set<size_t> ranks(plan.pseudo_file_ranks.begin(),
                               plan.pseudo_file_ranks.end());
        for (size_t rank : ranks) {
          const auto& file = pseudo[rank];
          if (file.path.find('%') != std::string::npos) {
            // sprintf(buf, "/proc/%d/cmdline", pid) pattern.
            uint32_t offset =
                builder.AddRodataString(ExpandPseudoPath(file.path));
            main_fn.LeaRodata(disasm::kRsi, offset);
            main_fn.CallImport(builder.AddImport("sprintf"));
          } else {
            uint32_t offset = builder.AddRodataString(file.path);
            main_fn.LeaRodata(disasm::kRdi, offset);
            main_fn.CallImport(builder.AddImport("open"));
          }
        }
      }
      // libc mid/tail/extension symbols.
      for (size_t rank : plan.libc_extra_ranks) {
        main_fn.CallImport(builder.AddImport(universe[rank].name));
      }
      // Own libraries.
      for (int lib = 0; lib < plan.lib_count; ++lib) {
        main_fn.CallImport(builder.AddImport(LibraryExport(plan, lib)));
      }
      // Inline system calls (11% of executables).
      if (plan.emits_direct_syscalls) {
        int limit = std::min(plan.syscall_prefix_rank, 60);
        for (int i = 0; i < 3 && limit > 0; ++i) {
          int rank = static_cast<int>(prng.NextBelow(
              static_cast<uint64_t>(limit)));
          EmitDirectSyscall(main_fn,
                            spec_.syscall_rank_order[static_cast<size_t>(
                                rank)]);
        }
      }
      // One arithmetic-obfuscated site (the paper's ~4% unknowns). The
      // number is `read`, already in every footprint, so ground truth is
      // unaffected -- only the unknown-site counter moves.
      if (plan.emits_obfuscated_site) {
        main_fn.MovRegImm32Obfuscated(
            disasm::kRax, static_cast<uint32_t>(*SyscallNumber("read")));
        main_fn.Syscall();
      }
      // Branch-guarded sites: recoverable only with CFG dataflow (the
      // linear ablation degrades them to unknown). The number is the
      // rank-1 syscall, already in this package's prefix footprint, so the
      // recovered sets match in both modes — only unknown counters move.
      if (plan.guarded_syscall_sites > 0 && plan.syscall_prefix_rank >= 1) {
        int guarded_nr = spec_.syscall_rank_order[0];
        for (int g = 0; g < plan.guarded_syscall_sites; ++g) {
          EmitGuardedSyscall(main_fn, guarded_nr);
        }
      }
      // Wrapper-style sites: the number/opcode is a constant here at the
      // call site but only an incoming argument inside the callee, so the
      // intra-function tiers count the callee's site unknown while the IPA
      // tier back-tracks it to these constants. Values are the rank-1
      // syscall and the rank-0 assigned ioctl opcode — both already in the
      // package footprint, so only unknown-site counters move across tiers.
      if (emit_sys_wrapper) {
        uint32_t nr = static_cast<uint32_t>(spec_.syscall_rank_order[0]);
        for (int c = 0; c < plan.wrapper_syscall_calls; ++c) {
          main_fn.MovRegImm32(disasm::kRdi, nr);
          main_fn.CallLocal(wrapper_index);
        }
      }
      if (emit_ioctl_helpers) {
        main_fn.MovRegImm32(disasm::kRsi,
                            ioctl_ops[plan.ioctl_ranks[0]].code);
        main_fn.XorRegReg(disasm::kRdi);
        main_fn.CallLocal(helper1_index);
      }
    } else {
      // Secondary executables are light: a few common calls.
      for (size_t i = 0; i < 4 && i < plan.libc_common_ranks.size(); ++i) {
        main_fn.CallImport(
            builder.AddImport(universe[plan.libc_common_ranks[i]].name));
      }
    }
    main_fn.EmitEpilogue();

    FunctionBuilder start_fn("_start");
    start_fn.CallImport(import_start_main);
    // main is added after _start; its function index will be 1.
    start_fn.CallLocal(1);
    start_fn.CallImport(import_cxa);
    start_fn.Ret();

    uint32_t start_index =
        builder.AddFunction(start_fn.Finish(/*exported=*/false));
    builder.AddFunction(main_fn.Finish(/*exported=*/false));
    if (emit_sys_wrapper) {
      // Local syscall(2) clone: number arrives in rdi and either moves into
      // rax before a direct `syscall` (optionally across a branch merge, so
      // recovery needs the CFG join *and* the argument fact) or tail-jumps
      // into libc's syscall@plt with every register untouched.
      FunctionBuilder wrapper_fn("__syscall_thunk");
      if (plan.wrapper_tail_plt) {
        wrapper_fn.TailJmpImport(builder.AddImport("syscall"));
      } else {
        wrapper_fn.EmitPrologue();
        wrapper_fn.MovRegReg(disasm::kRax, disasm::kRdi);
        if (plan.wrapper_guarded) {
          wrapper_fn.JccShortForward(0x5, 1);  // jne over the nop
          wrapper_fn.Nop(1);
        }
        wrapper_fn.Syscall();
        wrapper_fn.EmitEpilogue();
      }
      builder.AddFunction(wrapper_fn.Finish(/*exported=*/false));
    }
    if (emit_ioctl_helpers) {
      // Two-hop opcode forwarding: main pins the opcode, helper1 passes its
      // arguments through untouched, helper2 issues the vectored call.
      FunctionBuilder helper1_fn("__ioctl_helper1");
      helper1_fn.EmitPrologue();
      helper1_fn.CallLocal(helper1_index + 1);
      helper1_fn.EmitEpilogue();
      builder.AddFunction(helper1_fn.Finish(/*exported=*/false));
      FunctionBuilder helper2_fn("__ioctl_helper2");
      helper2_fn.EmitPrologue();
      helper2_fn.CallImport(builder.AddImport("ioctl"));
      helper2_fn.EmitEpilogue();
      builder.AddFunction(helper2_fn.Finish(/*exported=*/false));
    }
    if (exe == 0 && prng.NextBool(0.35)) {
      // Dead code: statically linked leftovers that no call path reaches.
      // Call-graph reachability (the paper's methodology) must exclude its
      // API usage; a whole-binary sweep would not.
      FunctionBuilder dead_fn("__linked_but_unused");
      dead_fn.EmitPrologue();
      dead_fn.CallImport(builder.AddImport("ptrace"));
      dead_fn.CallImport(builder.AddImport("sync"));
      dead_fn.CallImport(builder.AddImport("strfry"));
      dead_fn.EmitEpilogue();
      builder.AddFunction(dead_fn.Finish(/*exported=*/false));
    }
    LAPIS_RETURN_IF_ERROR(builder.SetEntryFunction(start_index));
    SynthesizedBinary binary;
    LAPIS_RETURN_IF_ERROR(builder.BuildInto(binary.bytes));
    binary.name = exe == 0 ? plan.name : plan.name + "-alt" +
                                             std::to_string(exe);
    out.push_back(std::move(binary));
  }
  return out;
}

Result<std::vector<DistroSynthesizer::SynthesizedScript>>
DistroSynthesizer::PackageScripts(size_t package_index) const {
  if (package_index >= spec_.packages.size()) {
    return InvalidArgumentError("package index out of range");
  }
  const PackagePlan& plan = spec_.packages[package_index];
  std::vector<SynthesizedScript> out;
  if (plan.script_count == 0) {
    return out;
  }
  Prng prng(spec_.options.seed ^ HashName(plan.name) ^ 0x5c819);
  // Shebang forms per interpreter bucket; a third of scripts use the
  // `#!/usr/bin/env <interp>` indirection.
  const char* direct = "#!/bin/sh";
  const char* env_name = "sh";
  switch (plan.kind) {
    case package::ProgramKind::kShellDash:
      direct = "#!/bin/sh";
      env_name = "dash";
      break;
    case package::ProgramKind::kShellBash:
      direct = "#!/bin/bash";
      env_name = "bash";
      break;
    case package::ProgramKind::kPython:
      direct = "#!/usr/bin/python2.7";
      env_name = "python";
      break;
    case package::ProgramKind::kPerl:
      direct = "#!/usr/bin/perl";
      env_name = "perl";
      break;
    case package::ProgramKind::kRuby:
      direct = "#!/usr/bin/ruby1.9";
      env_name = "ruby";
      break;
    default:
      direct = "#!/usr/bin/tclsh";
      env_name = "tclsh";
      break;
  }
  for (size_t i = 0; i < plan.script_count; ++i) {
    SynthesizedScript script;
    script.name = plan.name + "-script" + std::to_string(i);
    std::string text;
    if (prng.NextBool(0.33)) {
      text = std::string("#!/usr/bin/env ") + env_name + "\n";
    } else {
      text = std::string(direct) + "\n";
    }
    text += "# generated by lapis corpus\n";
    text += "exit 0\n";
    script.contents.assign(text.begin(), text.end());
    out.push_back(std::move(script));
  }
  return out;
}

Result<package::Repository> DistroSynthesizer::BuildRepository() const {
  package::Repository repo;
  for (size_t i = 0; i < spec_.packages.size(); ++i) {
    const PackagePlan& plan = spec_.packages[i];
    package::Package pkg;
    pkg.name = plan.name;
    pkg.kind = plan.kind;
    pkg.script_count = plan.script_count;
    for (const auto& dep : plan.depends) {
      auto it = spec_.by_name.find(dep);
      if (it == spec_.by_name.end()) {
        return InternalError("unknown dependency " + dep);
      }
      pkg.depends.push_back(static_cast<package::PackageId>(it->second));
    }
    if (!plan.interpreter_package.empty()) {
      auto it = spec_.by_name.find(plan.interpreter_package);
      if (it == spec_.by_name.end()) {
        return InternalError("unknown interpreter " +
                             plan.interpreter_package);
      }
      pkg.interpreter = static_cast<package::PackageId>(it->second);
    }
    LAPIS_ASSIGN_OR_RETURN(auto id, repo.AddPackage(std::move(pkg)));
    (void)id;
  }
  return repo;
}

}  // namespace lapis::corpus
