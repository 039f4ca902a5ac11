// Synthesizer tests: the emitted ELF binaries must round-trip through the
// analysis pipeline and realize exactly the plan's API usage.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>

#include "src/analysis/binary_analyzer.h"
#include "src/analysis/library_resolver.h"
#include "src/corpus/api_universe.h"
#include "src/corpus/binary_synth.h"
#include "src/corpus/syscall_table.h"
#include "src/elf/elf_reader.h"

namespace lapis::corpus {
namespace {

using analysis::BinaryAnalysis;
using analysis::BinaryAnalyzer;
using analysis::Footprint;
using analysis::FunctionInfo;
using analysis::LibraryResolver;

DistroOptions TestOptions() {
  DistroOptions options;
  options.app_package_count = 400;
  options.script_package_count = 40;
  options.data_package_count = 10;
  return options;
}

struct SynthFixture {
  DistroSpec spec;
  LibraryResolver resolver;
  std::unique_ptr<DistroSynthesizer> synthesizer;

  explicit SynthFixture() {
    auto result = BuildDistroSpec(TestOptions());
    EXPECT_TRUE(result.ok());
    spec = result.take();
    synthesizer = std::make_unique<DistroSynthesizer>(spec);
    auto core_libs = synthesizer->CoreLibraries();
    EXPECT_TRUE(core_libs.ok()) << core_libs.status().ToString();
    for (const auto& binary : core_libs.value()) {
      auto image = elf::ElfReader::Parse(binary.bytes);
      EXPECT_TRUE(image.ok()) << binary.name;
      auto analysis = BinaryAnalyzer::Analyze(image.value());
      EXPECT_TRUE(analysis.ok()) << binary.name;
      EXPECT_TRUE(resolver
                      .AddLibrary(std::make_shared<BinaryAnalysis>(
                          analysis.take()))
                      .ok())
          << binary.name;
    }
  }
};

SynthFixture& Fixture() {
  static SynthFixture* fixture = new SynthFixture();
  return *fixture;
}

TEST(BinarySynth, CoreLibrariesRegister) {
  EXPECT_EQ(Fixture().resolver.library_count(), 4u);
  EXPECT_EQ(Fixture().resolver.ExporterOf("read"), kLibcSoname);
  EXPECT_EQ(Fixture().resolver.ExporterOf("_dl_start"), kLdSoname);
  EXPECT_EQ(Fixture().resolver.ExporterOf("__pthread_init"), kPthreadSoname);
  EXPECT_EQ(Fixture().resolver.ExporterOf("__rt_init"), kRtSoname);
}

TEST(BinarySynth, LibcStartupClosureIsExactlyTheStartupSet) {
  auto resolution =
      Fixture().resolver.ResolveFromSymbols({"__libc_start_main"});
  std::set<int> expected(StartupSyscalls().begin(), StartupSyscalls().end());
  EXPECT_EQ(resolution.footprint.syscalls, expected);
  // The startup path stays clear of vectored operations: those belong to
  // the packages that request them.
  EXPECT_TRUE(resolution.footprint.ioctl_ops.empty());
}

TEST(BinarySynth, WrapperFootprintIsItsSyscall) {
  for (const char* name : {"openat", "seccomp", "mount", "epoll_wait"}) {
    auto resolution = Fixture().resolver.ResolveFromSymbols({name});
    std::set<int> expected = {*SyscallNumber(name)};
    EXPECT_EQ(resolution.footprint.syscalls, expected) << name;
  }
}

TEST(BinarySynth, CommonSymbolsBottomOutInBaseWrappers) {
  auto resolution = Fixture().resolver.ResolveFromSymbols({"printf"});
  // printf locally calls one of write/read/mmap: a startup syscall.
  EXPECT_EQ(resolution.footprint.syscalls.size(), 1u);
  std::set<int> base(StartupSyscalls().begin(), StartupSyscalls().end());
  EXPECT_TRUE(base.count(*resolution.footprint.syscalls.begin()));
}

TEST(BinarySynth, ChkVariantReachesBase) {
  auto resolution = Fixture().resolver.ResolveFromSymbols({"__printf_chk"});
  // __printf_chk -> printf -> one base wrapper.
  EXPECT_EQ(resolution.footprint.syscalls.size(), 1u);
  // Only the chk entry counts as a used export (locals do not).
  EXPECT_EQ(resolution.used_exports.at(kLibcSoname),
            (std::set<std::string>{"__printf_chk"}));
}

TEST(BinarySynth, LibcSymbolSizesMatchUniverse) {
  auto core_libs = Fixture().synthesizer->CoreLibraries();
  ASSERT_TRUE(core_libs.ok());
  const auto& libc = core_libs.value().back();
  ASSERT_EQ(libc.name, kLibcSoname);
  auto image = elf::ElfReader::Parse(libc.bytes);
  ASSERT_TRUE(image.ok());
  std::map<std::string, uint64_t> sizes;
  for (const auto* sym : image.value().DefinedFunctions()) {
    sizes[sym->name] = sym->size;
  }
  // The universe plus the one deliberate non-universe export: the
  // `syscall(2)` clone that tail-plt wrappers forward into.
  EXPECT_EQ(sizes.size(), kLibcSymbolCount + 1);
  EXPECT_EQ(sizes.count("syscall"), 1u);
  size_t checked = 0;
  for (const auto& spec : LibcUniverse()) {
    auto it = sizes.find(spec.name);
    ASSERT_NE(it, sizes.end()) << spec.name;
    EXPECT_GE(it->second, spec.code_size) << spec.name;
    ++checked;
  }
  EXPECT_EQ(checked, kLibcSymbolCount);
}

// Independent oracle for LibraryResolver::ResolveExecutable: a naive
// function-level BFS over (binary, function) nodes. It starts at the
// entry, follows local_callees within a binary, sends each plt_calls symbol
// to the first-registered library that exports it, and unions the local
// footprint of every function it visits.
Footprint ReferenceClosure(
    const BinaryAnalysis& exe,
    const std::vector<std::shared_ptr<const BinaryAnalysis>>& libraries) {
  using Node = std::pair<const BinaryAnalysis*, uint64_t>;
  std::set<Node> visited;
  std::deque<Node> queue = {{&exe, exe.entry()}};
  Footprint footprint;
  while (!queue.empty()) {
    auto [binary, vaddr] = queue.front();
    queue.pop_front();
    if (!visited.insert({binary, vaddr}).second) {
      continue;
    }
    const FunctionInfo* fn = binary->FunctionAt(vaddr);
    if (fn == nullptr) {
      continue;
    }
    footprint.MergeFrom(fn->local);
    for (uint64_t callee : fn->local_callees) {
      queue.emplace_back(binary, callee);
    }
    for (const std::string& symbol : fn->plt_calls) {
      for (const auto& library : libraries) {
        const auto& exports = library->exports();
        const FunctionInfo* target = library->FunctionNamed(symbol);
        if (target != nullptr &&
            std::find(exports.begin(), exports.end(), symbol) !=
                exports.end()) {
          queue.emplace_back(library.get(), target->vaddr);
          break;
        }
      }
    }
  }
  return footprint;
}

// Resolves one package's executables against the core libraries, checks
// each resolution field by field against the reference closure, and
// returns the union of the recovered syscall sets.
std::set<int> ResolvePackage(size_t pkg_index) {
  auto& fixture = Fixture();
  auto binaries = fixture.synthesizer->PackageBinaries(pkg_index);
  EXPECT_TRUE(binaries.ok());
  // Package-local libraries need a package-local resolver overlay; simplest
  // is a fresh resolver seeded with the core libs each time, so build one.
  // `libraries` mirrors its registration order for the reference closure.
  LibraryResolver local;
  std::vector<std::shared_ptr<const BinaryAnalysis>> libraries;
  auto add_library = [&](BinaryAnalysis analysis) {
    auto library = std::make_shared<const BinaryAnalysis>(std::move(analysis));
    libraries.push_back(library);
    EXPECT_TRUE(local.AddLibrary(library).ok());
  };
  {
    auto core_libs = fixture.synthesizer->CoreLibraries();
    EXPECT_TRUE(core_libs.ok());
    for (const auto& binary : core_libs.value()) {
      auto image = elf::ElfReader::Parse(binary.bytes);
      add_library(BinaryAnalyzer::Analyze(image.value()).take());
    }
  }
  std::set<int> recovered;
  for (const auto& binary : binaries.value()) {
    auto image = elf::ElfReader::Parse(binary.bytes);
    EXPECT_TRUE(image.ok()) << binary.name;
    auto analysis = BinaryAnalyzer::Analyze(image.value());
    EXPECT_TRUE(analysis.ok()) << binary.name;
    if (binary.is_library) {
      add_library(analysis.take());
      continue;
    }
    auto resolution = local.ResolveExecutable(analysis.value());
    EXPECT_TRUE(resolution.unresolved_imports.empty())
        << binary.name << ": "
        << *resolution.unresolved_imports.begin();
    const Footprint& got = resolution.footprint;
    const Footprint want = ReferenceClosure(analysis.value(), libraries);
    EXPECT_EQ(got.syscalls, want.syscalls) << binary.name;
    EXPECT_EQ(got.ioctl_ops, want.ioctl_ops) << binary.name;
    EXPECT_EQ(got.fcntl_ops, want.fcntl_ops) << binary.name;
    EXPECT_EQ(got.prctl_ops, want.prctl_ops) << binary.name;
    EXPECT_EQ(got.pseudo_paths, want.pseudo_paths) << binary.name;
    recovered.insert(got.syscalls.begin(), got.syscalls.end());
  }
  return recovered;
}

TEST(BinarySynth, EssentialPackageMatchesGroundTruth) {
  auto it = Fixture().spec.by_name.find("coreutils");
  ASSERT_NE(it, Fixture().spec.by_name.end());
  EXPECT_EQ(ResolvePackage(it->second),
            Fixture().spec.ExpectedSyscalls(it->second));
}

TEST(BinarySynth, LibraryCarrierPackageMatchesGroundTruth) {
  auto it = Fixture().spec.by_name.find("libnuma");
  ASSERT_NE(it, Fixture().spec.by_name.end());
  auto recovered = ResolvePackage(it->second);
  EXPECT_EQ(recovered, Fixture().spec.ExpectedSyscalls(it->second));
  EXPECT_TRUE(recovered.count(*SyscallNumber("mbind")));
}

TEST(BinarySynth, StaticPackageMatchesGroundTruth) {
  for (size_t i = 0; i < Fixture().spec.packages.size(); ++i) {
    if (!Fixture().spec.packages[i].static_binary) {
      continue;
    }
    EXPECT_EQ(ResolvePackage(i), Fixture().spec.ExpectedSyscalls(i))
        << Fixture().spec.packages[i].name;
    break;  // one is enough here; the integration test covers all
  }
}

TEST(BinarySynth, SampleAppPackagesMatchGroundTruth) {
  size_t checked = 0;
  for (size_t i = 0; i < Fixture().spec.packages.size() && checked < 8; ++i) {
    const auto& plan = Fixture().spec.packages[i];
    if (plan.name.rfind("app-", 0) != 0) {
      continue;
    }
    EXPECT_EQ(ResolvePackage(i), Fixture().spec.ExpectedSyscalls(i))
        << plan.name;
    ++checked;
    i += 37;  // sample across the popularity range
  }
  EXPECT_EQ(checked, 8u);
}

// More reference-closure inputs: apps across the popularity range, the
// sole kexec_load user, and an interpreter.
TEST(BinarySynth, ResolverMatchesReferenceClosure) {
  for (const char* package :
       {"app-0003", "app-0123", "app-0307", "kexec-tools", "python-core"}) {
    auto it = Fixture().spec.by_name.find(package);
    ASSERT_NE(it, Fixture().spec.by_name.end()) << package;
    EXPECT_EQ(ResolvePackage(it->second),
              Fixture().spec.ExpectedSyscalls(it->second))
        << package;
  }
}

TEST(BinarySynth, QemuRealizes270Syscalls) {
  auto it = Fixture().spec.by_name.find("qemu-user");
  ASSERT_NE(it, Fixture().spec.by_name.end());
  auto recovered = ResolvePackage(it->second);
  EXPECT_EQ(recovered.size(), Fixture().spec.ExpectedSyscalls(it->second).size());
  EXPECT_GE(recovered.size(), 268u);
}

TEST(BinarySynth, RepositoryMirrorsSpec) {
  auto repo = Fixture().synthesizer->BuildRepository();
  ASSERT_TRUE(repo.ok());
  EXPECT_EQ(repo.value().size(), Fixture().spec.packages.size());
  auto libc_id = repo.value().FindByName("libc6");
  ASSERT_NE(libc_id, package::kInvalidPackage);
  // Every ELF package depends (directly or transitively) on libc6.
  auto rdeps = repo.value().ReverseDependencyClosure(libc_id);
  size_t elf_packages = 0;
  for (const auto& plan : Fixture().spec.packages) {
    if (!plan.data_only && plan.interpreter_package.empty()) {
      ++elf_packages;
    }
  }
  EXPECT_GE(rdeps.size(), elf_packages - 13);  // static pkgs don't link libc
}

TEST(BinarySynth, ScriptAndDataPackagesShipNoElf) {
  for (size_t i = 0; i < Fixture().spec.packages.size(); ++i) {
    const auto& plan = Fixture().spec.packages[i];
    if (plan.data_only || !plan.interpreter_package.empty()) {
      auto binaries = Fixture().synthesizer->PackageBinaries(i);
      ASSERT_TRUE(binaries.ok());
      EXPECT_TRUE(binaries.value().empty()) << plan.name;
    }
  }
}

TEST(BinarySynth, AllBinariesHaveLoaderConsistentLayout) {
  auto core_libs = Fixture().synthesizer->CoreLibraries().take();
  for (const auto& binary : core_libs) {
    auto image = elf::ElfReader::Parse(binary.bytes).take();
    EXPECT_TRUE(image.ValidateLayout().ok())
        << binary.name << ": " << image.ValidateLayout().ToString();
  }
  for (const char* package : {"coreutils", "qemu-user", "app-0010",
                              "static-tool-00"}) {
    auto it = Fixture().spec.by_name.find(package);
    ASSERT_NE(it, Fixture().spec.by_name.end());
    auto binaries = Fixture().synthesizer->PackageBinaries(it->second).take();
    for (const auto& binary : binaries) {
      auto image = elf::ElfReader::Parse(binary.bytes).take();
      EXPECT_TRUE(image.ValidateLayout().ok()) << binary.name;
    }
  }
}

TEST(BinarySynth, DeterministicBytes) {
  auto it = Fixture().spec.by_name.find("coreutils");
  auto a = Fixture().synthesizer->PackageBinaries(it->second);
  auto b = Fixture().synthesizer->PackageBinaries(it->second);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().size(), b.value().size());
  for (size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(a.value()[i].bytes, b.value()[i].bytes);
  }
}

TEST(BinarySynth, OutOfRangePackageRejected) {
  EXPECT_FALSE(
      Fixture().synthesizer->PackageBinaries(999999).ok());
}

}  // namespace
}  // namespace lapis::corpus
