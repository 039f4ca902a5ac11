// Ablation: the paper's §A.2 independence assumption. The popcon data only
// publishes marginal install counts, so API importance must assume package
// installations are independent. Our simulator retains joint samples,
// letting us compare the assumed importance against the true fraction of
// installations containing a dependent package.

#include <cmath>
#include <iostream>

#include "bench/study_fixture.h"
#include "src/corpus/study_runner.h"
#include "src/corpus/syscall_table.h"

using namespace lapis;

namespace {

struct ErrorStats {
  double mean = 0.0;
  double max = 0.0;
  size_t measured = 0;
};

ErrorStats MeasureErrors(const corpus::StudyResult& study,
                         TableWriter* table) {
  const auto& dataset = *study.dataset;
  ErrorStats stats;
  double sum = 0.0;
  for (int nr = 0; nr < corpus::kSyscallCount; ++nr) {
    core::ApiId api = core::SyscallApi(static_cast<uint32_t>(nr));
    const auto& dependents = dataset.Dependents(api);
    if (dependents.empty()) {
      continue;
    }
    size_t hits = 0;
    for (const auto& sample : study.survey.samples) {
      for (core::PackageId pkg : dependents) {
        if (sample.Contains(pkg)) {
          ++hits;
          break;
        }
      }
    }
    double truth = static_cast<double>(hits) /
                   static_cast<double>(study.survey.samples.size());
    double assumed = dataset.ApiImportance(api);
    double error = std::abs(assumed - truth);
    stats.max = std::max(stats.max, error);
    sum += error;
    ++stats.measured;
    // Print the interesting middle band (0 and 1 are trivially exact).
    if (table != nullptr && assumed > 0.02 && assumed < 0.98 &&
        table->row_count() < 14) {
      table->AddRow({std::string(corpus::SyscallName(nr)),
                     lapis::bench::Pct(assumed, 2),
                     lapis::bench::Pct(truth, 2),
                     lapis::bench::Pct(error, 2)});
    }
  }
  stats.mean = sum / std::max<size_t>(stats.measured, 1);
  return stats;
}

}  // namespace

int main() {
  // This bench needs joint samples; run its own mid-scale studies.
  corpus::StudyOptions options = bench::BenchStudyOptions();
  options.distro.app_package_count =
      std::min<size_t>(options.distro.app_package_count, 1500);
  options.distro.installation_count = 30000;
  options.popcon_retain_samples = 30000;

  std::printf("Ablation: independence assumption (paper Appendix A.2)\n\n");

  // ---- World 1: installs correlated only through APT dependencies (the
  // paper's implicit model).
  auto baseline = corpus::RunStudy(options);
  if (!baseline.ok()) {
    std::fprintf(stderr, "study failed: %s\n",
                 baseline.status().ToString().c_str());
    return 1;
  }
  TableWriter table({"System call", "Assumed importance (A.1 formula)",
                     "True importance (joint samples)", "Abs. error"});
  ErrorStats base_stats = MeasureErrors(baseline.value(), &table);
  std::printf("world 1: dependency-only correlation (%zu packages, %zu "
              "joint samples)\n",
              baseline.value().spec.packages.size(),
              baseline.value().survey.samples.size());
  table.Print(std::cout);
  std::printf("mean |error| = %s, max |error| = %s across %zu syscalls\n\n",
              bench::Pct(base_stats.mean, 2).c_str(),
              bench::Pct(base_stats.max, 2).c_str(), base_stats.measured);

  // ---- World 2: strong install-profile correlation (server / desktop /
  // developer profiles tripling same-profile package odds). The published
  // popcon data cannot reveal this structure; this measures how wrong the
  // independence assumption could be if it exists.
  options.popcon_profile_count = 3;
  auto correlated = corpus::RunStudy(options);
  if (!correlated.ok()) {
    std::fprintf(stderr, "study failed\n");
    return 1;
  }
  ErrorStats corr_stats = MeasureErrors(correlated.value(), nullptr);
  std::printf("world 2: + install profiles (3 profiles, 3x boost)\n");
  std::printf("mean |error| = %s, max |error| = %s across %zu syscalls\n",
              bench::Pct(corr_stats.mean, 2).c_str(),
              bench::Pct(corr_stats.max, 2).c_str(), corr_stats.measured);

  std::printf(
      "\nconclusion: with dependency-only correlation the A.1 formula is\n"
      "nearly exact; under hidden install profiles it overestimates\n"
      "importance for co-profile APIs by up to the max error above --\n"
      "the cost of the popcon dataset publishing only marginal counts\n"
      "(paper §2.4's acknowledged limitation).\n");
  return 0;
}
