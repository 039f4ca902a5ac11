// Synthesizer tests: the emitted ELF binaries must round-trip through the
// analysis pipeline and realize exactly the plan's API usage.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/analysis/binary_analyzer.h"
#include "src/analysis/library_resolver.h"
#include "src/cache/content_hash.h"
#include "src/corpus/api_universe.h"
#include "src/corpus/binary_synth.h"
#include "src/corpus/study_runner.h"
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
  SortedSet<int> expected;
  expected.insert(StartupSyscalls().begin(), StartupSyscalls().end());
  EXPECT_EQ(resolution.footprint.syscalls, expected);
  // The startup path stays clear of vectored operations: those belong to
  // the packages that request them.
  EXPECT_TRUE(resolution.footprint.ioctl_ops.empty());
}

TEST(BinarySynth, WrapperFootprintIsItsSyscall) {
  for (const char* name : {"openat", "seccomp", "mount", "epoll_wait"}) {
    auto resolution = Fixture().resolver.ResolveFromSymbols({name});
    SortedSet<int> expected = {*SyscallNumber(name)};
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
    for (uint32_t import : fn->plt_calls) {
      const std::string_view symbol = binary->imports()[import];
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

// Pins every executable's resolution over SmallStudyOptions()'s corpus:
// the core libraries, then each package's libraries, register in
// RunStudy's order before any executable resolves, and an FNV-1a chain
// folds each resolution's names and counts. Names, not ids, go in, so the
// resolver may renumber its tables but not change an answer.
TEST(BinarySynth, ResolutionsMatchPinnedDigest) {
  const StudyOptions options = SmallStudyOptions();
  auto spec = BuildDistroSpec(options.distro);
  ASSERT_TRUE(spec.ok());
  const DistroSynthesizer synthesizer(spec.value());
  auto analyze = [&](const SynthesizedBinary& binary) {
    auto image = elf::ElfReader::Parse(binary.bytes);
    EXPECT_TRUE(image.ok()) << binary.name;
    auto analysis = BinaryAnalyzer::Analyze(image.value(), options.analyzer);
    EXPECT_TRUE(analysis.ok()) << binary.name;
    return std::make_shared<const BinaryAnalysis>(analysis.take());
  };
  LibraryResolver resolver;
  auto core_libs = synthesizer.CoreLibraries();
  ASSERT_TRUE(core_libs.ok());
  for (const auto& binary : core_libs.value()) {
    ASSERT_TRUE(resolver.AddLibrary(analyze(binary)).ok()) << binary.name;
  }
  std::vector<std::pair<std::string, std::shared_ptr<const BinaryAnalysis>>>
      executables;
  for (size_t pkg = 0; pkg < spec.value().packages.size(); ++pkg) {
    auto binaries = synthesizer.PackageBinaries(pkg);
    ASSERT_TRUE(binaries.ok());
    for (const auto& binary : binaries.value()) {
      if (binary.is_library) {
        ASSERT_TRUE(resolver.AddLibrary(analyze(binary)).ok()) << binary.name;
      } else {
        executables.emplace_back(binary.name, analyze(binary));
      }
    }
  }

  uint64_t digest = cache::kFnvOffsetBasis;
  auto fold = [&](uint64_t value) { digest = cache::HashU64(value, digest); };
  auto fold_name = [&](std::string_view name) {
    fold(name.size());
    digest = cache::HashString(name, digest);
  };
  auto fold_numbers = [&](const auto& values) {
    fold(values.size());
    for (auto value : values) {
      fold(static_cast<uint64_t>(value));
    }
  };
  auto fold_names = [&](const auto& names) {
    fold(names.size());
    for (const auto& name : names) {
      fold_name(name);
    }
  };
  for (const auto& [name, exe] : executables) {
    const LibraryResolver::Resolution resolution =
        resolver.Render(resolver.ResolveIds(*exe));
    const Footprint& fp = resolution.footprint;
    fold_name(name);
    fold_numbers(fp.syscalls);
    fold_numbers(fp.ioctl_ops);
    fold_numbers(fp.fcntl_ops);
    fold_numbers(fp.prctl_ops);
    fold_numbers(fp.int80_syscalls);
    fold_names(fp.pseudo_paths);
    fold(static_cast<uint64_t>(fp.unknown_syscall_sites));
    fold(static_cast<uint64_t>(fp.unknown_opcode_sites));
    fold(static_cast<uint64_t>(fp.indirect_call_sites));
    fold(static_cast<uint64_t>(fp.int80_sites));
    fold(resolution.used_exports.size());
    for (const auto& [soname, symbols] : resolution.used_exports) {
      fold_name(soname);
      fold_names(symbols);
    }
    fold_names(resolution.unresolved_imports);
    fold(resolution.reachable_function_count);
  }
  EXPECT_EQ(resolver.library_count(), 642u);
  EXPECT_EQ(executables.size(), 663u);
  EXPECT_EQ(digest, 0xfe5a6eb90bca5915u);
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
  const package::ClosureTable closures = repo.value().Closures();
  size_t rdeps = 0;  // a closure lists each member once
  for (package::PackageId id = 0; id < repo.value().size(); ++id) {
    rdeps += static_cast<size_t>(std::ranges::count(closures.Of(id), libc_id));
  }
  size_t elf_packages = 0;
  for (const auto& plan : Fixture().spec.packages) {
    if (!plan.data_only && plan.interpreter_package.empty()) {
      ++elf_packages;
    }
  }
  EXPECT_GE(rdeps, elf_packages - 13);  // static pkgs don't link libc
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

// Each thread reuses one ELF builder, so what one package leaves in it
// must not reach the next: X, then the much larger Y, then X again on one
// thread, and X on a fresh thread, all emit the same bytes.
TEST(BinarySynth, DeterministicBytes) {
  const size_t x = Fixture().spec.by_name.at("coreutils");
  const size_t y = Fixture().spec.by_name.at("qemu-user");
  auto synthesize = [](size_t pkg) {
    auto binaries = Fixture().synthesizer->PackageBinaries(pkg);
    EXPECT_TRUE(binaries.ok());
    return binaries.take();
  };
  const std::vector<SynthesizedBinary> first = synthesize(x);
  ASSERT_FALSE(first.empty());
  EXPECT_FALSE(synthesize(y).empty());
  std::vector<SynthesizedBinary> again = synthesize(x);
  std::vector<SynthesizedBinary> elsewhere;
  std::thread([&] { elsewhere = synthesize(x); }).join();
  for (const auto* copy : {&again, &elsewhere}) {
    ASSERT_EQ(copy->size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ((*copy)[i].name, first[i].name);
      EXPECT_EQ((*copy)[i].bytes, first[i].bytes) << first[i].name;
    }
  }
}

// Pins every emitted byte: an FNV-1a chain over the name and bytes of each
// core library, then of each package's binaries in package order. The
// analysis cache is keyed by the hash of these bytes, so a change here
// misses every cached entry a user holds. The constants were printed by a
// build of the two-copy emitter the one-pass builder replaced.
TEST(BinarySynth, BytesMatchPinnedDigest) {
  uint64_t digest = cache::kFnvOffsetBasis;
  size_t total_bytes = 0;
  size_t binaries = 0;
  auto fold = [&](const SynthesizedBinary& binary) {
    digest = cache::HashString(binary.name, digest);
    digest = cache::HashBytes(binary.bytes, digest);
    total_bytes += binary.bytes.size();
    ++binaries;
  };
  auto core_libs = Fixture().synthesizer->CoreLibraries();
  ASSERT_TRUE(core_libs.ok());
  for (const auto& binary : core_libs.value()) {
    fold(binary);
  }
  for (size_t pkg = 0; pkg < Fixture().spec.packages.size(); ++pkg) {
    auto package = Fixture().synthesizer->PackageBinaries(pkg);
    ASSERT_TRUE(package.ok()) << Fixture().spec.packages[pkg].name;
    for (const auto& binary : package.value()) {
      fold(binary);
    }
  }
  EXPECT_EQ(binaries, 1305u);
  EXPECT_EQ(total_bytes, 5481392u);
  EXPECT_EQ(digest, 0x3644fd39432a48c7u);
}

TEST(BinarySynth, OutOfRangePackageRejected) {
  EXPECT_FALSE(
      Fixture().synthesizer->PackageBinaries(999999).ok());
}

}  // namespace
}  // namespace lapis::corpus
