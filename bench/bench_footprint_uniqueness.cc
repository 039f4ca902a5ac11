// §6: system-call footprints as identifiers — distinct and unique footprint
// counts, and automatic seccomp-policy generation from footprints.

#include <iostream>

#include "bench/study_fixture.h"
#include "src/corpus/syscall_table.h"
#include "src/util/strings.h"

using namespace lapis;

int main() {
  bench::PrintStudyBanner("§6: footprint uniqueness & seccomp policies");
  const auto& study = bench::FullStudy();
  auto uniq = study.dataset->ComputeFootprintUniqueness();

  TableWriter table({"Metric", "Paper", "Measured"});
  table.AddRow({"Applications with footprints", "31,433",
                FormatWithCommas(uniq.packages_with_footprint)});
  table.AddRow({"Distinct footprints", "11,680",
                FormatWithCommas(uniq.distinct)});
  table.AddRow({"Unique footprints", "9,133 (1/3 of apps)",
                FormatWithCommas(uniq.unique)});
  table.Print(std::cout);

  // Demonstrate automatic seccomp allowlist generation (paper: "generation
  // of seccomp policies can be easily automated using our framework").
  PrintBanner(std::cout, "Example generated seccomp allowlists");
  for (const char* package : {"qemu-user", "kexec-tools", "coreutils"}) {
    auto pkg = study.dataset->FindPackage(package);
    if (pkg == UINT32_MAX) {
      continue;
    }
    size_t syscalls = 0;
    std::vector<std::string> sample;
    for (uint32_t dense : study.dataset->Footprint(pkg)) {
      const core::ApiId& api = study.dataset->UsedApis()[dense];
      if (api.kind != core::ApiKind::kSyscall) {
        continue;
      }
      ++syscalls;
      if (sample.size() < 6) {
        sample.push_back(std::string(
            corpus::SyscallName(static_cast<int>(api.code))));
      }
    }
    std::printf("  %-14s allow %zu syscalls: %s, ...\n", package, syscalls,
                Join(sample, ", ").c_str());
  }
  return 0;
}
