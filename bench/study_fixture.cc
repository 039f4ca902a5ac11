#include "bench/study_fixture.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "src/util/env.h"
#include "src/util/strings.h"

namespace lapis::bench {

namespace {

double g_study_seconds = 0.0;

}  // namespace

corpus::StudyOptions BenchStudyOptions() {
  corpus::StudyOptions options;
  options.distro.app_package_count = EnvSizeOr("LAPIS_BENCH_APPS", 3000);
  options.distro.installation_count =
      EnvSizeOr("LAPIS_BENCH_INSTALLS", 100000);
  options.popcon_retain_samples = EnvSizeOr("LAPIS_BENCH_SAMPLES", 0);
  // 0 = all cores (runtime::DefaultJobs); 1 pins the sequential path.
  options.jobs = EnvSizeOr("LAPIS_BENCH_JOBS", 0);
  // Optional persistent analysis cache (warm reruns of the bench suite).
  options.cache_dir = EnvStringOr("LAPIS_CACHE_DIR", "");
  return options;
}

const corpus::StudyResult& FullStudy() {
  static const corpus::StudyResult* study = [] {
    auto start = std::chrono::steady_clock::now();
    auto result = corpus::RunStudy(BenchStudyOptions());
    auto end = std::chrono::steady_clock::now();
    g_study_seconds = std::chrono::duration<double>(end - start).count();
    if (!result.ok()) {
      std::fprintf(stderr, "study generation failed: %s\n",
                   result.status().ToString().c_str());
      std::abort();
    }
    return new corpus::StudyResult(result.take());
  }();
  return *study;
}

void PrintStudyBanner(const std::string& title) {
  const auto& study = FullStudy();
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
  std::printf(
      "synthetic distribution: %zu packages, %zu ELF binaries analyzed "
      "(%.1fs), %s simulated installations, ground-truth mismatches: %zu\n",
      study.spec.packages.size(), study.analyzed_binaries, g_study_seconds,
      FormatWithCommas(study.survey.total_reporting).c_str(),
      study.ground_truth_mismatches);
  std::printf(
      "analysis: %s constant propagation, %d of %d syscall sites unknown\n",
      study.analyzer_options.use_ipa          ? "interprocedural (ipa)"
      : study.analyzer_options.use_dataflow   ? "CFG dataflow"
                                              : "linear",
      study.unknown_syscall_sites, study.total_syscall_sites);
  if (study.audit.has_value()) {
    std::printf("%s\n", study.audit->Summary().c_str());
  }
  std::printf(
      "pipeline: %zu worker thread(s), %zu tasks executed, "
      "%.1fs wall / %.1fs cpu across stages\n",
      study.jobs_used, study.executor_stats.tasks_executed,
      study.pipeline_stats.TotalWallSeconds(),
      study.pipeline_stats.TotalCpuSeconds());
  if (study.cache_enabled) {
    std::printf(
        "cache: %llu hits / %llu lookups (%.1f%%), %zu/%zu analyses "
        "restored, %llu KiB read, %llu KiB written\n",
        static_cast<unsigned long long>(study.cache_stats.hits),
        static_cast<unsigned long long>(study.cache_stats.Lookups()),
        100.0 * study.cache_stats.HitRate(), study.analyses_from_cache,
        study.analyzed_binaries,
        static_cast<unsigned long long>(study.cache_stats.bytes_read / 1024),
        static_cast<unsigned long long>(study.cache_stats.bytes_written /
                                        1024));
  }
  std::printf("\n");
}

std::string Pct(double fraction, int decimals) {
  return FormatPercent(fraction, decimals);
}

}  // namespace lapis::bench
