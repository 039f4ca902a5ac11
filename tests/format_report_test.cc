// Formatter and report-export tests.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "src/core/report.h"
#include "src/disasm/decoder.h"
#include "src/disasm/formatter.h"
#include "src/util/strings.h"

namespace lapis {
namespace {

using disasm::DecodeOne;
using disasm::FormatInsn;
using disasm::FormatListing;

TEST(Formatter, MovImmediate) {
  std::vector<uint8_t> bytes = {0xb8, 0x10, 0x00, 0x00, 0x00};
  auto insn = DecodeOne(bytes, 0x401000).take();
  std::string line = FormatInsn(insn, bytes);
  EXPECT_NE(line.find("401000:"), std::string::npos);
  EXPECT_NE(line.find("b8 10 00 00 00"), std::string::npos);
  EXPECT_NE(line.find("mov $0x10, %rax"), std::string::npos);
}

TEST(Formatter, CallWithSymbol) {
  std::vector<uint8_t> bytes = {0xe8, 0x10, 0x00, 0x00, 0x00};
  auto insn = DecodeOne(bytes, 0x1000).take();
  auto symbolizer = [](uint64_t vaddr) -> std::string {
    return vaddr == 0x1015 ? "helper" : "";
  };
  std::string line = FormatInsn(insn, bytes, symbolizer);
  EXPECT_NE(line.find("call 0x1015 <helper>"), std::string::npos);
}

TEST(Formatter, SyscallAndRet) {
  std::vector<uint8_t> syscall_bytes = {0x0f, 0x05};
  EXPECT_NE(FormatInsn(DecodeOne(syscall_bytes, 0).take(), syscall_bytes)
                .find("syscall"),
            std::string::npos);
  std::vector<uint8_t> ret_bytes = {0xc3};
  EXPECT_NE(FormatInsn(DecodeOne(ret_bytes, 0).take(), ret_bytes)
                .find("ret"),
            std::string::npos);
}

TEST(Formatter, PushPopReadable) {
  std::vector<uint8_t> push = {0x55};
  EXPECT_NE(FormatInsn(DecodeOne(push, 0).take(), push).find("push %rbp"),
            std::string::npos);
  std::vector<uint8_t> pop = {0x5d};
  EXPECT_NE(FormatInsn(DecodeOne(pop, 0).take(), pop).find("pop %rbp"),
            std::string::npos);
}

TEST(Formatter, LeaRipRelative) {
  std::vector<uint8_t> bytes = {0x48, 0x8d, 0x3d, 0x20, 0x00, 0x00, 0x00};
  auto insn = DecodeOne(bytes, 0x1000).take();
  std::string line = FormatInsn(insn, bytes);
  EXPECT_NE(line.find("lea 0x1027(%rip), %rdi"), std::string::npos);
}

TEST(Formatter, ListingWalksAllInstructions) {
  // mov eax, 60; xor edi, edi; syscall; ret
  std::vector<uint8_t> body = {0xb8, 0x3c, 0, 0, 0, 0x31, 0xff,
                               0x0f, 0x05, 0xc3};
  std::string listing = FormatListing(body, 0x400000);
  EXPECT_EQ(std::count(listing.begin(), listing.end(), '\n'), 4);
  EXPECT_NE(listing.find("syscall"), std::string::npos);
}

TEST(Formatter, ListingMarksBadBytes) {
  std::vector<uint8_t> body = {0x90, 0x06};
  std::string listing = FormatListing(body, 0);
  EXPECT_NE(listing.find("(bad)"), std::string::npos);
}

TEST(Formatter, ListingEmitsSymbolHeaders) {
  std::vector<uint8_t> body = {0x90, 0xc3};
  auto symbolizer = [](uint64_t vaddr) -> std::string {
    return vaddr == 0x2000 ? "fn" : "";
  };
  std::string listing = FormatListing(body, 0x2000, symbolizer);
  EXPECT_NE(listing.find("<fn>:"), std::string::npos);
}

// ---------------- report exports ----------------

core::StudyDataset SmallDataset() {
  core::StudyDataset dataset(2, 100);
  EXPECT_TRUE(dataset.SetPackageName(0, "alpha").ok());
  EXPECT_TRUE(dataset.SetPackageName(1, "beta").ok());
  EXPECT_TRUE(dataset.SetInstallCount(0, 100).ok());
  EXPECT_TRUE(dataset.SetInstallCount(1, 25).ok());
  EXPECT_TRUE(dataset
                  .SetFootprint(0, {core::SyscallApi(0),
                                    core::ApiId{core::ApiKind::kPseudoFile,
                                                0}})
                  .ok());
  EXPECT_TRUE(dataset.SetFootprint(1, {core::SyscallApi(0),
                                       core::SyscallApi(7)})
                  .ok());
  EXPECT_TRUE(dataset.Finalize().ok());
  return dataset;
}

TEST(Report, ApiNameResolvesInterned) {
  core::StringInterner paths;
  core::StringInterner libc;
  uint32_t dev_null = paths.Intern("/dev/null");
  uint32_t printf_id = libc.Intern("printf");
  EXPECT_EQ(core::ApiName(core::ApiId{core::ApiKind::kPseudoFile, dev_null},
                          paths, libc),
            "file:/dev/null");
  EXPECT_EQ(core::ApiName(core::ApiId{core::ApiKind::kLibcFn, printf_id},
                          paths, libc),
            "libc:printf");
  EXPECT_EQ(core::ApiName(core::SyscallApi(0), paths, libc), "syscall:0");
  // Out-of-range interned ids fall back to numeric codes.
  EXPECT_EQ(core::ApiName(core::ApiId{core::ApiKind::kLibcFn, 999}, paths,
                          libc),
            "libc:#999");
}

TEST(Report, ImportanceTsv) {
  auto dataset = SmallDataset();
  core::StringInterner paths;
  paths.Intern("/dev/null");
  core::StringInterner libc;
  std::ostringstream os;
  ASSERT_TRUE(core::ExportImportanceTsv(
                  dataset, {core::ApiKind::kSyscall},
                  paths, libc, os)
                  .ok());
  auto lines = Split(os.str(), '\n');
  // header + syscall 0 + syscall 7 + trailing empty.
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0],
            "kind\tapi\timportance\tunweighted_importance\tdependents");
  EXPECT_NE(lines[1].find("syscall:0\t1.000000"), std::string::npos);
  EXPECT_NE(lines[2].find("syscall:7\t0.250000"), std::string::npos);
}

TEST(Report, PackagesTsv) {
  auto dataset = SmallDataset();
  std::ostringstream os;
  ASSERT_TRUE(core::ExportPackagesTsv(dataset, os).ok());
  EXPECT_NE(os.str().find("alpha\t1.000000\t2\t1"), std::string::npos);
  EXPECT_NE(os.str().find("beta\t0.250000\t2\t2"), std::string::npos);
}

TEST(Report, FootprintsTsv) {
  auto dataset = SmallDataset();
  core::StringInterner paths;
  paths.Intern("/dev/null");
  core::StringInterner libc;
  std::ostringstream os;
  ASSERT_TRUE(
      core::ExportFootprintsTsv(dataset, paths, libc, os).ok());
  auto lines = Split(os.str(), '\n');
  ASSERT_EQ(lines.size(), 6u);  // header + 4 rows + trailing empty
  EXPECT_NE(os.str().find("alpha\tfile:/dev/null"), std::string::npos);
}

// All six kinds, ids outside both interners, and a package with an empty
// footprint.
core::StudyDataset SixKindDataset() {
  core::StudyDataset dataset(3, 100);
  EXPECT_TRUE(dataset.SetPackageName(0, "alpha").ok());
  EXPECT_TRUE(dataset.SetPackageName(1, "beta").ok());
  EXPECT_TRUE(dataset.SetPackageName(2, "gamma").ok());
  EXPECT_TRUE(dataset.SetInstallCount(0, 100).ok());
  EXPECT_TRUE(dataset.SetInstallCount(1, 25).ok());
  EXPECT_TRUE(
      dataset
          .SetFootprint(0, {core::ApiId{core::ApiKind::kLibcFn, 0},
                            core::ApiId{core::ApiKind::kPseudoFile, 7},
                            core::PrctlApi(15), core::FcntlApi(3),
                            core::IoctlApi(0x5401),
                            core::ApiId{core::ApiKind::kPseudoFile, 0},
                            core::SyscallApi(0)})
          .ok());
  EXPECT_TRUE(dataset
                  .SetFootprint(1, {core::SyscallApi(7), core::SyscallApi(0),
                                    core::ApiId{core::ApiKind::kLibcFn, 9},
                                    core::ApiId{core::ApiKind::kPseudoFile, 0}})
                  .ok());
  EXPECT_TRUE(dataset.Finalize().ok());
  return dataset;
}

struct SixKindNames {
  core::StringInterner paths;
  core::StringInterner libc;
  SixKindNames() {
    paths.Intern("/dev/null");
    libc.Intern("printf");
  }
};

TEST(Report, ImportanceTsvExactBytes) {
  auto dataset = SixKindDataset();
  SixKindNames names;
  std::ostringstream os;
  ASSERT_TRUE(core::ExportImportanceTsv(
                  dataset,
                  {core::ApiKind::kSyscall, core::ApiKind::kIoctlOp,
                   core::ApiKind::kFcntlOp, core::ApiKind::kPrctlOp,
                   core::ApiKind::kPseudoFile, core::ApiKind::kLibcFn},
                  names.paths, names.libc, os)
                  .ok());
  EXPECT_EQ(os.str(),
            "kind\tapi\timportance\tunweighted_importance\tdependents\n"
            "syscall\tsyscall:0\t1.000000\t0.666667\t2\n"
            "syscall\tsyscall:7\t0.250000\t0.333333\t1\n"
            "ioctl-op\tioctl:21505\t1.000000\t0.333333\t1\n"
            "fcntl-op\tfcntl:3\t1.000000\t0.333333\t1\n"
            "prctl-op\tprctl:15\t1.000000\t0.333333\t1\n"
            "pseudo-file\tfile:/dev/null\t1.000000\t0.666667\t2\n"
            "pseudo-file\tfile:#7\t1.000000\t0.333333\t1\n"
            "libc-fn\tlibc:printf\t1.000000\t0.333333\t1\n"
            "libc-fn\tlibc:#9\t0.250000\t0.333333\t1\n");
}

TEST(Report, PackagesTsvExactBytes) {
  auto dataset = SixKindDataset();
  std::ostringstream os;
  ASSERT_TRUE(core::ExportPackagesTsv(dataset, os).ok());
  EXPECT_EQ(os.str(),
            "package\tinstall_probability\tfootprint_apis\tsyscalls\n"
            "alpha\t1.000000\t7\t1\n"
            "beta\t0.250000\t4\t2\n"
            "gamma\t0.000000\t0\t0\n");
}

TEST(Report, FootprintsTsvExactBytes) {
  auto dataset = SixKindDataset();
  SixKindNames names;
  std::ostringstream os;
  ASSERT_TRUE(
      core::ExportFootprintsTsv(dataset, names.paths, names.libc, os).ok());
  EXPECT_EQ(os.str(),
            "package\tapi\n"
            "alpha\tsyscall:0\n"
            "alpha\tioctl:21505\n"
            "alpha\tfcntl:3\n"
            "alpha\tprctl:15\n"
            "alpha\tfile:/dev/null\n"
            "alpha\tfile:#7\n"
            "alpha\tlibc:printf\n"
            "beta\tsyscall:0\n"
            "beta\tsyscall:7\n"
            "beta\tfile:/dev/null\n"
            "beta\tlibc:#9\n");
}

TEST(Report, FailedStreamGetsIoError) {
  auto dataset = SixKindDataset();
  SixKindNames names;
  auto failed = [] {
    auto os = std::make_unique<std::ostringstream>();
    os->setstate(std::ios::badbit);
    return os;
  };
  EXPECT_EQ(core::ExportImportanceTsv(dataset, {core::ApiKind::kSyscall},
                                      names.paths, names.libc, *failed())
                .code(),
            StatusCode::kIoError);
  EXPECT_EQ(core::ExportPackagesTsv(dataset, *failed()).code(),
            StatusCode::kIoError);
  EXPECT_EQ(core::ExportFootprintsTsv(dataset, names.paths, names.libc,
                                      *failed())
                .code(),
            StatusCode::kIoError);
}

TEST(Report, RequiresFinalizedDataset) {
  core::StudyDataset dataset(1, 10);
  core::StringInterner interner;
  std::ostringstream os;
  EXPECT_EQ(core::ExportPackagesTsv(dataset, os).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(core::ExportImportanceTsv(dataset, {core::ApiKind::kSyscall},
                                      interner, interner, os)
                .code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace lapis
