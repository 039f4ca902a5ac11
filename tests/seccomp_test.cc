// Seccomp policy generation tests (paper §6).

#include <gtest/gtest.h>

#include <memory>

#include "src/core/seccomp.h"
#include "src/corpus/study_runner.h"
#include "src/corpus/syscall_table.h"

namespace lapis::core {
namespace {

std::unique_ptr<StudyDataset> TinyDataset() {
  auto ds = std::make_unique<StudyDataset>(3, 100);
  EXPECT_TRUE(ds->SetPackageName(0, "tool").ok());
  EXPECT_TRUE(ds->SetPackageName(1, "data-only").ok());
  EXPECT_TRUE(ds->SetPackageName(2, "mixed").ok());
  for (PackageId id = 0; id < 3; ++id) {
    EXPECT_TRUE(ds->SetInstallCount(id, 10).ok());
  }
  EXPECT_TRUE(ds->SetFootprint(0, {SyscallApi(0), SyscallApi(1),
                                   SyscallApi(60)})
                  .ok());
  EXPECT_TRUE(ds->SetFootprint(2, {SyscallApi(2), IoctlApi(0x5401),
                                   ApiId{ApiKind::kLibcFn, 7}})
                  .ok());
  EXPECT_TRUE(ds->Finalize().ok());
  return ds;
}

TEST(Seccomp, PolicyMatchesFootprintExactly) {
  auto ds = TinyDataset();
  auto policy = GeneratePolicy(*ds, 0);
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ(policy.value().allowed, (std::set<uint32_t>{0, 1, 60}));
  // The filter is exactly as permissive as the footprint.
  EXPECT_EQ(Evaluate(policy.value(), 0), SeccompAction::kAllow);
  EXPECT_EQ(Evaluate(policy.value(), 60), SeccompAction::kAllow);
  EXPECT_EQ(Evaluate(policy.value(), 2), SeccompAction::kKillProcess);
  EXPECT_EQ(Evaluate(policy.value(), 319), SeccompAction::kKillProcess);
}

TEST(Seccomp, OnlySyscallKindEntersTheFilter) {
  auto ds = TinyDataset();
  auto policy = GeneratePolicy(*ds, 2);
  ASSERT_TRUE(policy.ok());
  // ioctl *opcode* and libc symbol are not syscall numbers.
  EXPECT_EQ(policy.value().allowed, (std::set<uint32_t>{2}));
}

TEST(Seccomp, RefusesEmptyFootprint) {
  auto ds = TinyDataset();
  EXPECT_EQ(GeneratePolicy(*ds, 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(GeneratePolicy(*ds, 99).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Seccomp, AlwaysAllowAndErrno) {
  auto ds = TinyDataset();
  SeccompGenOptions options;
  options.always_allow = {231};  // exit_group for the runtime
  auto policy = GeneratePolicy(*ds, 0, options).take();
  EXPECT_EQ(Evaluate(policy, 231), SeccompAction::kAllow);
  policy.errno_syscalls = {157};
  EXPECT_EQ(Evaluate(policy, 157), SeccompAction::kErrno);
}

TEST(Seccomp, RenderAndSurface) {
  auto ds = TinyDataset();
  auto policy = GeneratePolicy(*ds, 0).take();
  policy.errno_syscalls = {157};
  std::string text = Render(policy, [](uint32_t nr) {
    return std::string(corpus::SyscallName(static_cast<int>(nr)));
  });
  EXPECT_NE(text.find("allow read"), std::string::npos);
  EXPECT_NE(text.find("allow exit"), std::string::npos);
  EXPECT_NE(text.find("errno ENOSYS prctl"), std::string::npos);
  EXPECT_NE(text.find("default SECCOMP_RET_KILL_PROCESS"),
            std::string::npos);
  // 320-universe surface: 3 allowed + 1 errno'd -> 316 denied.
  EXPECT_EQ(DeniedCount(policy, 320), 316u);
}

TEST(Seccomp, RealCorpusPolicyIsConsistent) {
  auto options = corpus::SmallStudyOptions();
  auto study = corpus::RunStudy(options).take();
  auto pkg = study.dataset->FindPackage("qemu-user");
  ASSERT_NE(pkg, UINT32_MAX);
  auto policy = GeneratePolicy(*study.dataset, pkg).take();
  EXPECT_EQ(policy.allowed.size(), 270u);
  // Everything in the footprint is allowed; at least one unused syscall
  // (Table 3) is denied.
  for (uint32_t dense : study.dataset->Footprint(pkg)) {
    const ApiId& api = study.dataset->UsedApis()[dense];
    if (api.kind == ApiKind::kSyscall) {
      EXPECT_EQ(Evaluate(policy, api.code), SeccompAction::kAllow);
    }
  }
  EXPECT_EQ(Evaluate(policy, static_cast<uint32_t>(
                                 corpus::UnusedSyscalls()[0])),
            SeccompAction::kKillProcess);
  EXPECT_EQ(DeniedCount(policy, 320), 50u);
}

}  // namespace
}  // namespace lapis::core
