// The resolve stage's join (src/corpus/api_join.h): resolver ids to dataset
// ApiIds, with pseudo paths outside the seeded universe interned by the
// canonical merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/binary_analyzer.h"
#include "src/analysis/library_resolver.h"
#include "src/codegen/function_builder.h"
#include "src/corpus/api_join.h"
#include "src/elf/elf_builder.h"
#include "src/elf/elf_reader.h"
#include "src/runtime/executor.h"
#include "src/runtime/parallel.h"

namespace lapis::corpus {
namespace {

using analysis::BinaryAnalysis;
using analysis::LibraryResolver;
using codegen::FunctionBuilder;
using core::ApiId;
using core::ApiKind;
using elf::BinaryType;
using elf::ElfBuilder;

BinaryAnalysis Analyze(ElfBuilder& builder) {
  auto bytes = builder.Build();
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto image = elf::ElfReader::Parse(bytes.value());
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  auto analysis = analysis::BinaryAnalyzer::Analyze(image.value());
  EXPECT_TRUE(analysis.ok()) << analysis.status().ToString();
  return analysis.take();
}

struct Export {
  std::string name;
  uint32_t nr = 0;
  std::vector<std::string> paths;
};

// A shared library whose every export loads its paths and makes one
// syscall.
std::shared_ptr<const BinaryAnalysis> Library(
    const std::string& soname, const std::vector<Export>& exports) {
  ElfBuilder builder(BinaryType::kSharedLibrary);
  builder.SetSoname(soname);
  for (const Export& spec : exports) {
    FunctionBuilder fn(spec.name);
    fn.EmitPrologue();
    for (const std::string& path : spec.paths) {
      fn.LeaRodata(disasm::kRdi, builder.AddRodataString(path));
    }
    fn.MovRegImm32(disasm::kRax, spec.nr);
    fn.Syscall();
    fn.EmitEpilogue();
    builder.AddFunction(fn.Finish(true));
  }
  return std::make_shared<BinaryAnalysis>(Analyze(builder));
}

// An executable whose entry loads its own `paths` and calls `imports`.
BinaryAnalysis Executable(const std::vector<std::string>& imports,
                          const std::vector<std::string>& paths) {
  ElfBuilder builder(BinaryType::kExecutable);
  std::vector<uint32_t> import_ids;
  for (const std::string& symbol : imports) {
    import_ids.push_back(builder.AddImport(symbol));
  }
  FunctionBuilder fn("_start");
  for (const std::string& path : paths) {
    fn.LeaRodata(disasm::kRdi, builder.AddRodataString(path));
  }
  for (uint32_t id : import_ids) {
    fn.CallImport(id);
  }
  fn.Ret();
  const uint32_t index = builder.AddFunction(fn.Finish(false));
  EXPECT_TRUE(builder.SetEntryFunction(index).ok());
  return Analyze(builder);
}

core::StringInterner Universe() {
  core::StringInterner paths;
  paths.Intern("/dev/null");
  paths.Intern("/proc/cpuinfo");
  return paths;
}

struct Joined {
  core::StringInterner paths;
  std::vector<std::vector<ApiId>> footprints;
  std::vector<std::vector<int>> syscalls;
};

// RunStudy's resolve shard and merge, on `jobs` workers.
Joined Join(const LibraryResolver& resolver,
            const std::vector<std::vector<BinaryAnalysis>>& packages,
            size_t jobs) {
  Joined out{Universe(), {}, {}};
  core::StringInterner libc;
  libc.Intern("puts");
  libc.Intern("printf");
  const ApiIdMap map(resolver, "libc.so.6", out.paths, libc);
  runtime::Executor pool(jobs);
  auto shards = runtime::ParallelMap(&pool, packages.size(), [&](size_t pkg) {
    PackageApis apis;
    for (const BinaryAnalysis& exe : packages[pkg]) {
      map.Add(resolver.ResolveIds(exe), apis);
    }
    apis.Finish();
    return apis;
  });
  for (PackageApis& shard : shards) {
    MergeNewPaths(shard, out.paths);
    std::sort(shard.footprint.begin(), shard.footprint.end());
    out.footprints.push_back(std::move(shard.footprint));
    out.syscalls.push_back(std::move(shard.recovered_syscalls));
  }
  return out;
}

ApiId Path(uint32_t id) { return ApiId{ApiKind::kPseudoFile, id}; }

TEST(ApiJoin, NewPathsInternInPackageExecutableNameOrderAtAnyJobs) {
  // Registration interns /sys/zz/late, then /sys/mm/middle, then
  // /sys/aa/early: the resolver's path ids run against name order.
  LibraryResolver resolver;
  ASSERT_TRUE(resolver
                  .AddLibrary(Library(
                      "libpaths.so", {{"a_late", 10, {"/sys/zz/late"}},
                                      {"b_middle", 11,
                                       {"/sys/mm/middle", "/dev/null"}},
                                      {"c_early", 12, {"/sys/aa/early"}}}))
                  .ok());
  ASSERT_TRUE(
      resolver.AddLibrary(Library("libc.so.6", {{"printf", 1, {}}})).ok());
  std::vector<std::vector<BinaryAnalysis>> packages(4);
  packages[0].push_back(Executable({"c_early", "a_late"}, {}));
  packages[0].push_back(Executable({"b_middle", "printf"}, {}));
  packages[1].push_back(Executable({"a_late"}, {"/proc/own"}));
  // packages[2] ships no executable.
  packages[3].push_back(Executable({"b_middle"}, {"/proc/cpuinfo"}));

  const Joined serial = Join(resolver, packages, 1);
  ASSERT_EQ(serial.paths.size(), 6u);
  EXPECT_EQ(serial.paths.NameOf(2), "/sys/aa/early");
  EXPECT_EQ(serial.paths.NameOf(3), "/sys/zz/late");
  EXPECT_EQ(serial.paths.NameOf(4), "/sys/mm/middle");
  EXPECT_EQ(serial.paths.NameOf(5), "/proc/own");

  EXPECT_EQ(serial.footprints[0],
            (std::vector<ApiId>{core::SyscallApi(1), core::SyscallApi(10),
                                core::SyscallApi(11), core::SyscallApi(12),
                                Path(0), Path(2), Path(3), Path(4),
                                ApiId{ApiKind::kLibcFn, 1}}));
  EXPECT_EQ(serial.footprints[1],
            (std::vector<ApiId>{core::SyscallApi(10), Path(3), Path(5)}));
  EXPECT_TRUE(serial.footprints[2].empty());
  EXPECT_EQ(serial.footprints[3],
            (std::vector<ApiId>{core::SyscallApi(11), Path(0), Path(1),
                                Path(4)}));
  EXPECT_EQ(serial.syscalls[0], (std::vector<int>{1, 10, 11, 12}));

  const Joined parallel = Join(resolver, packages, 8);
  ASSERT_EQ(parallel.paths.size(), serial.paths.size());
  for (uint32_t id = 0; id < serial.paths.size(); ++id) {
    EXPECT_EQ(parallel.paths.NameOf(id), serial.paths.NameOf(id)) << id;
  }
  EXPECT_EQ(parallel.footprints, serial.footprints);
  EXPECT_EQ(parallel.syscalls, serial.syscalls);
}

TEST(ApiJoin, LibcIdsOnlyForLibcExportsInTheUniverse) {
  // `syscall` is exported by libc but outside the libc universe; `puts`
  // is in the universe but exported by another library.
  LibraryResolver resolver;
  ASSERT_TRUE(resolver
                  .AddLibrary(Library("libc.so.6",
                                      {{"printf", 1, {}}, {"syscall", 2, {}}}))
                  .ok());
  ASSERT_TRUE(
      resolver.AddLibrary(Library("libother.so", {{"puts", 3, {}}})).ok());
  std::vector<std::vector<BinaryAnalysis>> packages(1);
  packages[0].push_back(Executable({"printf", "syscall", "puts"}, {}));
  const Joined joined = Join(resolver, packages, 1);
  EXPECT_EQ(joined.footprints[0],
            (std::vector<ApiId>{core::SyscallApi(1), core::SyscallApi(2),
                                core::SyscallApi(3),
                                ApiId{ApiKind::kLibcFn, 1}}));
}

}  // namespace
}  // namespace lapis::corpus
