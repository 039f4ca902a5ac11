// Pipeline micro-benchmarks (google-benchmark): disassembly throughput,
// per-binary analysis, cross-library resolution, and metric computation.
//
// main() first runs a cold/warm end-to-end study pair on one
// content-addressed cache directory and writes the measured numbers (host
// topology, per-stage wall/CPU, cache hit rate, speedup) to
// BENCH_pipeline.json (override with LAPIS_BENCH_JSON; LAPIS_BENCH_APPS /
// LAPIS_BENCH_INSTALLS / LAPIS_BENCH_JOBS scale the pair), then hands over
// to the registered google-benchmark suite. The warm run reopens the log
// the cold run wrote, as a user's second run does, so its wall time
// includes the cache Open's read of that log.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_host.h"
#include "src/analysis/binary_analyzer.h"
#include "src/analysis/library_resolver.h"
#include "src/core/completeness.h"
#include "src/corpus/binary_synth.h"
#include "src/corpus/distro_spec.h"
#include "src/corpus/study_runner.h"
#include "src/corpus/syscall_table.h"
#include "src/corpus/system_profiles.h"
#include "src/disasm/decoder.h"
#include "src/elf/elf_reader.h"
#include "src/runtime/executor.h"
#include "src/runtime/stage_stats.h"
#include "src/util/env.h"

namespace lapis {
namespace {

const corpus::DistroSpec& Spec() {
  static const corpus::DistroSpec* spec = [] {
    corpus::DistroOptions options;
    options.app_package_count = 500;
    options.script_package_count = 50;
    options.data_package_count = 10;
    return new corpus::DistroSpec(
        corpus::BuildDistroSpec(options).take());
  }();
  return *spec;
}

const std::vector<uint8_t>& LibcBytes() {
  static const std::vector<uint8_t>* bytes = [] {
    corpus::DistroSynthesizer synthesizer(Spec());
    auto libs = synthesizer.CoreLibraries().take();
    return new std::vector<uint8_t>(std::move(libs.back().bytes));
  }();
  return *bytes;
}

void BM_DisassembleLibcText(benchmark::State& state) {
  auto image = elf::ElfReader::Parse(LibcBytes()).take();
  const auto* text = image.FindSection(".text");
  for (auto _ : state) {
    auto sweep = disasm::LinearSweep(text->data, text->addr);
    benchmark::DoNotOptimize(sweep.insns.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text->size));
}
BENCHMARK(BM_DisassembleLibcText);

void BM_ParseLibcElf(benchmark::State& state) {
  for (auto _ : state) {
    auto image = elf::ElfReader::Parse(LibcBytes());
    benchmark::DoNotOptimize(image.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(LibcBytes().size()));
}
BENCHMARK(BM_ParseLibcElf);

void BM_AnalyzeLibc(benchmark::State& state) {
  auto image = elf::ElfReader::Parse(LibcBytes()).take();
  for (auto _ : state) {
    auto analysis = analysis::BinaryAnalyzer::Analyze(image);
    benchmark::DoNotOptimize(analysis.ok());
  }
}
BENCHMARK(BM_AnalyzeLibc);

void BM_SynthesizeAndAnalyzePackage(benchmark::State& state) {
  corpus::DistroSynthesizer synthesizer(Spec());
  size_t coreutils = Spec().by_name.at("coreutils");
  for (auto _ : state) {
    auto binaries = synthesizer.PackageBinaries(coreutils).take();
    for (const auto& binary : binaries) {
      auto image = elf::ElfReader::Parse(binary.bytes).take();
      auto analysis = analysis::BinaryAnalyzer::Analyze(image);
      benchmark::DoNotOptimize(analysis.ok());
    }
  }
}
BENCHMARK(BM_SynthesizeAndAnalyzePackage);

const corpus::StudyResult& PerfStudy() {
  static const corpus::StudyResult* study = [] {
    corpus::StudyOptions options;
    options.distro.app_package_count = 500;
    options.distro.script_package_count = 50;
    options.distro.data_package_count = 10;
    options.distro.installation_count = 20000;
    return new corpus::StudyResult(corpus::RunStudy(options).take());
  }();
  return *study;
}

void BM_ApiImportanceAllSyscalls(benchmark::State& state) {
  const auto& dataset = *PerfStudy().dataset;
  for (auto _ : state) {
    double total = 0;
    for (int nr = 0; nr < corpus::kSyscallCount; ++nr) {
      total += dataset.ApiImportance(
          core::SyscallApi(static_cast<uint32_t>(nr)));
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ApiImportanceAllSyscalls);

void BM_WeightedCompleteness(benchmark::State& state) {
  const auto& dataset = *PerfStudy().dataset;
  auto ranked = dataset.RankByImportance(core::ApiKind::kSyscall);
  std::set<core::ApiId> supported(ranked.begin(),
                                  ranked.begin() + ranked.size() / 2);
  core::CompletenessOptions options;
  options.evaluated_kinds = {core::ApiKind::kSyscall};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::WeightedCompleteness(dataset, supported, options));
  }
}
BENCHMARK(BM_WeightedCompleteness);

void BM_GreedyCompletenessPath(benchmark::State& state) {
  const auto& dataset = *PerfStudy().dataset;
  for (auto _ : state) {
    auto path = core::GreedyCompletenessPath(
        dataset, core::ApiKind::kSyscall, corpus::FullSyscallUniverse());
    benchmark::DoNotOptimize(path.size());
  }
}
BENCHMARK(BM_GreedyCompletenessPath);

// End-to-end study at a reduced scale, parameterized by worker count
// (argument 0 = runtime::DefaultJobs, i.e. all cores). Exports are
// byte-identical across arguments; only wall time may differ.
void BM_StudyPipelineJobs(benchmark::State& state) {
  corpus::StudyOptions options;
  options.distro.app_package_count = 400;
  options.distro.script_package_count = 40;
  options.distro.data_package_count = 10;
  options.distro.installation_count = 5000;
  options.jobs = static_cast<size_t>(state.range(0));
  double tasks = 0.0;
  size_t threads = 1;
  for (auto _ : state) {
    auto study = corpus::RunStudy(options);
    if (!study.ok()) {
      state.SkipWithError(study.status().ToString().c_str());
      break;
    }
    tasks += static_cast<double>(study.value().executor_stats.tasks_executed);
    threads = study.value().jobs_used;
    benchmark::DoNotOptimize(study.value().analyzed_binaries);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["tasks"] =
      benchmark::Counter(tasks, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_StudyPipelineJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

// Raw executor overhead: ParallelFor over a counter increment, per element.
void BM_ExecutorParallelFor(benchmark::State& state) {
  runtime::Executor executor(static_cast<size_t>(state.range(0)));
  constexpr size_t kElements = 1 << 16;
  std::vector<uint32_t> data(kElements, 1);
  for (auto _ : state) {
    std::atomic<uint64_t> sum{0};
    executor.ParallelFor(0, kElements, [&data, &sum](size_t begin, size_t end) {
      uint64_t local = 0;
      for (size_t i = begin; i < end; ++i) {
        local += data[i];
      }
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    if (sum.load() != kElements) {
      state.SkipWithError("parallel_for dropped elements");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kElements));
}
BENCHMARK(BM_ExecutorParallelFor)->Arg(1)->Arg(0);

// The popcon survey at 100k installations; Arg is the worker count (0 =
// all cores). The survey is identical at every worker count.
void BM_PopconSimulation(benchmark::State& state) {
  const auto& spec = Spec();
  corpus::DistroSynthesizer synthesizer(spec);
  auto repo = synthesizer.BuildRepository().take();
  std::vector<double> marginals;
  for (const auto& plan : spec.packages) {
    marginals.push_back(plan.target_marginal);
  }
  runtime::Executor executor(static_cast<size_t>(state.range(0)));
  package::PopconOptions options;
  options.installation_count = 100000;
  for (auto _ : state) {
    auto survey =
        package::PopconSimulator::Run(repo, marginals, options, &executor);
    benchmark::DoNotOptimize(survey.ok());
  }
  state.counters["threads"] = static_cast<double>(executor.thread_count());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(options.installation_count));
}
BENCHMARK(BM_PopconSimulation)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// --- Cold/warm study pair + BENCH_pipeline.json ---------------------------

struct TimedStudy {
  corpus::StudyResult result;
  double wall_seconds = 0.0;
};

void AppendStages(std::ostringstream& os, const corpus::StudyResult& study) {
  os << "      \"stages\": {";
  bool first = true;
  for (const auto& [stage, record] : study.pipeline_stats.stages()) {
    if (!first) {
      os << ",";
    }
    first = false;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\n        \"%s\": { \"wall_s\": %.3f, \"cpu_s\": %.3f, "
                  "\"items\": %" PRIu64 " }",
                  stage.c_str(), record.wall_seconds, record.cpu_seconds,
                  record.items);
    os << buf;
  }
  os << "\n      }";
}

void AppendRun(std::ostringstream& os, const char* label,
               const TimedStudy& run) {
  const auto& cs = run.result.cache_stats;
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "    \"%s\": {\n"
      "      \"wall_s\": %.3f,\n"
      "      \"pipeline_wall_s\": %.3f,\n"
      "      \"pipeline_cpu_s\": %.3f,\n"
      "      \"cache\": { \"hits\": %" PRIu64 ", \"lookups\": %" PRIu64
      ", \"hit_rate\": %.4f, \"analyses_restored\": %zu, "
      "\"analyzed_binaries\": %zu, \"kib_read\": %" PRIu64
      ", \"kib_written\": %" PRIu64 " },\n",
      label, run.wall_seconds, run.result.pipeline_stats.TotalWallSeconds(),
      run.result.pipeline_stats.TotalCpuSeconds(), cs.hits, cs.Lookups(),
      cs.HitRate(), run.result.analyses_from_cache,
      run.result.analyzed_binaries, cs.bytes_read / 1024,
      cs.bytes_written / 1024);
  os << buf;
  AppendStages(os, run.result);
  os << "\n    }";
}

int WriteColdWarmJson() {
  corpus::StudyOptions options;
  options.distro.app_package_count = EnvSizeOr("LAPIS_BENCH_APPS", 3000);
  options.distro.installation_count =
      EnvSizeOr("LAPIS_BENCH_INSTALLS", 100000);
  options.jobs = EnvSizeOr("LAPIS_BENCH_JOBS", 0);

  auto cache_dir = std::filesystem::temp_directory_path() /
                   ("lapis-bench-cache-" + std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);
  options.cache_dir = cache_dir.string();

  auto run_once = [&options](const char* label) -> Result<TimedStudy> {
    std::fprintf(stderr, "[bench_pipeline_perf] %s study run...\n", label);
    double start = runtime::MonotonicSeconds();
    auto study = corpus::RunStudy(options);
    double wall = runtime::MonotonicSeconds() - start;
    if (!study.ok()) {
      return study.status();
    }
    return TimedStudy{study.take(), wall};
  };

  auto cold = run_once("cold");
  if (!cold.ok()) {
    std::fprintf(stderr, "cold study failed: %s\n",
                 cold.status().ToString().c_str());
    return 1;
  }
  auto warm = run_once("warm");
  if (!warm.ok()) {
    std::fprintf(stderr, "warm study failed: %s\n",
                 warm.status().ToString().c_str());
    return 1;
  }
  std::filesystem::remove_all(cache_dir, ec);

  double speedup = warm.value().wall_seconds > 0.0
                       ? cold.value().wall_seconds / warm.value().wall_seconds
                       : 0.0;
  double skip_fraction =
      warm.value().result.analyzed_binaries > 0
          ? static_cast<double>(warm.value().result.analyses_from_cache) /
                static_cast<double>(warm.value().result.analyzed_binaries)
          : 0.0;

  std::ostringstream os;
  os << "{\n";
  os << "  \"description\": \"Cold-vs-warm RunStudy pair on one "
        "content-addressed footprint cache directory (src/cache), emitted "
        "by bench_pipeline_perf at startup; the warm run opens the log the "
        "cold run wrote. Warm runs skip the per-binary "
        "analysis chain (ELF parse, linear sweep, CFG, dataflow) and the "
        "popcon survey, and rebuild library reach and resolutions from "
        "the restored analyses; exports are byte-identical cold vs. "
        "warm.\",\n";
  os << bench::HostJson();
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "  \"config\": { \"app_packages\": %zu, \"installations\": "
                "%" PRIu64 ", \"jobs\": %zu, \"jobs_used\": %zu },\n",
                options.distro.app_package_count,
                options.distro.installation_count, options.jobs,
                cold.value().result.jobs_used);
  os << buf;
  os << "  \"runs\": {\n";
  AppendRun(os, "cold", cold.value());
  os << ",\n";
  AppendRun(os, "warm", warm.value());
  os << "\n  },\n";
  std::snprintf(buf, sizeof buf,
                "  \"warm_vs_cold\": { \"speedup\": %.2f, "
                "\"hit_rate\": %.4f, \"analysis_skip_fraction\": %.4f },\n",
                speedup, warm.value().result.cache_stats.HitRate(),
                skip_fraction);
  os << buf;
  // ru_maxrss is a process-lifetime high-water mark, so this covers the
  // cold run, the warm run, and everything either allocated transiently.
  std::snprintf(buf, sizeof buf,
                "  \"memory\": { \"max_rss_kib\": %" PRIu64
                ", \"note\": \"process peak across both runs "
                "(getrusage ru_maxrss)\" }\n",
                runtime::PeakRssKib());
  os << buf;
  os << "}\n";

  std::string path = EnvStringOr("LAPIS_BENCH_JSON", "BENCH_pipeline.json");
  std::ofstream out(path, std::ios::trunc);
  out << os.str();
  if (!out.good()) {
    std::fprintf(stderr, "failed writing %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "[bench_pipeline_perf] wrote %s (cold %.3fs, warm %.3fs, "
               "%.1fx, hit rate %.1f%%, peak RSS %" PRIu64 " KiB)\n",
               path.c_str(), cold.value().wall_seconds,
               warm.value().wall_seconds, speedup,
               100.0 * warm.value().result.cache_stats.HitRate(),
               runtime::PeakRssKib());
  return 0;
}

}  // namespace
}  // namespace lapis

int main(int argc, char** argv) {
  // LAPIS_BENCH_SKIP_JSON=1 skips the cold/warm pair (e.g. when only the
  // registered microbenches are wanted).
  if (lapis::EnvSizeOr("LAPIS_BENCH_SKIP_JSON", 0) == 0) {
    int rc = lapis::WriteColdWarmJson();
    if (rc != 0) {
      return rc;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
