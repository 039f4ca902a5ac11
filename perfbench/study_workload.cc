// study_cold: timed RunStudy calls at benchmark scale, each into a fresh
// empty cache directory. A traced run then re-runs the study warm against
// the last iteration's cache and replays a sample of packages through the
// per-binary entry points.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/analysis/binary_analyzer.h"
#include "src/cache/analysis_codec.h"
#include "src/corpus/binary_synth.h"
#include "src/corpus/distro_spec.h"
#include "src/disasm/decoder.h"
#include "src/elf/elf_defs.h"
#include "src/elf/elf_reader.h"
#include "src/package/popcon.h"
#include "src/runtime/stage_stats.h"
#include "src/util/bytes.h"
#include "src/util/env.h"
#include "src/util/prng.h"

namespace lapis::perfbench {

namespace {

using runtime::MonotonicSeconds;

// Packages replayed through the per-binary entry points in a traced run.
constexpr size_t kReplayPackages = 48;
// The timed loop runs at least this many iterations, even past the
// window, so a median always exists.
constexpr size_t kMinIterations = 3;
// Warm re-runs against the cold cache in a traced run.
constexpr size_t kWarmIterations = 3;
constexpr const char* kCacheDir = "cold-cache";

// Stages whose wall time is reported, with their metric names.
const std::vector<std::pair<std::string, std::string>>& ReportedStages() {
  static const std::vector<std::pair<std::string, std::string>> stages = {
      {"synthesize+analyze", "stage.synthesize_analyze.wall_s"},
      {"resolve", "stage.resolve.wall_s"},
      {"join", "stage.join.wall_s"},
      {"popcon", "stage.popcon.wall_s"},
      {"dataset", "stage.dataset.wall_s"},
  };
  return stages;
}

// Replays a seeded sample of packages through each layer's public
// per-binary entry point, timing every call.
Status ReplayLayers(const corpus::StudyOptions& study_options, uint64_t seed,
                    Tracer& tracer, Report& report) {
  ScopedSpan replay_span(tracer, "study.replay");
  LAPIS_ASSIGN_OR_RETURN(auto spec,
                         corpus::BuildDistroSpec(study_options.distro));
  corpus::DistroSynthesizer synthesizer(spec);

  std::vector<size_t> elf_packages;
  for (size_t i = 0; i < spec.packages.size(); ++i) {
    const auto& plan = spec.packages[i];
    if (!plan.data_only && plan.interpreter_package.empty()) {
      elf_packages.push_back(i);
    }
  }
  Prng prng(seed ^ 0x7265706c6179ULL);
  prng.Shuffle(elf_packages);
  elf_packages.resize(std::min(elf_packages.size(), kReplayPackages));

  double synth_s = 0, parse_s = 0, sweep_s = 0, analyze_s = 0;
  double encode_s = 0, decode_s = 0;
  uint64_t binaries = 0, swept_bytes = 0;
  disasm::SweepResult sweep;
  for (size_t pkg : elf_packages) {
    double t = MonotonicSeconds();
    auto synthesized = [&] {
      ScopedSpan span(tracer, "corpus.synth");
      return synthesizer.PackageBinaries(pkg);
    }();
    synth_s += MonotonicSeconds() - t;
    if (!synthesized.ok()) {
      return synthesized.status();
    }
    for (const auto& binary : synthesized.value()) {
      ScopedSpan binary_span(tracer, "analysis.binary", ++binaries);
      t = MonotonicSeconds();
      auto image = [&] {
        ScopedSpan span(tracer, "elf.parse");
        return elf::ElfReader::Parse(binary.bytes);
      }();
      parse_s += MonotonicSeconds() - t;
      if (!image.ok()) {
        return image.status();
      }
      t = MonotonicSeconds();
      {
        ScopedSpan span(tracer, "disasm.sweep");
        for (const auto& section : image.value().sections()) {
          if ((section.flags & elf::kShfExecinstr) != 0) {
            disasm::LinearSweepInto(section.data, section.addr, sweep);
            swept_bytes += sweep.decoded_bytes;
          }
        }
      }
      sweep_s += MonotonicSeconds() - t;
      t = MonotonicSeconds();
      auto analysis = [&] {
        ScopedSpan span(tracer, "analysis.analyze");
        return analysis::BinaryAnalyzer::Analyze(image.value(),
                                                 study_options.analyzer);
      }();
      analyze_s += MonotonicSeconds() - t;
      if (!analysis.ok()) {
        return analysis.status();
      }
      ByteWriter writer;
      t = MonotonicSeconds();
      {
        ScopedSpan span(tracer, "cache.encode");
        cache::AnalysisCodec::Encode(analysis.value(), writer);
      }
      encode_s += MonotonicSeconds() - t;
      ByteReader reader(writer.bytes());
      t = MonotonicSeconds();
      auto decoded = [&] {
        ScopedSpan span(tracer, "cache.decode");
        return cache::AnalysisCodec::Decode(reader);
      }();
      decode_s += MonotonicSeconds() - t;
      if (!decoded.ok()) {
        return decoded.status();
      }
    }
  }
  if (binaries == 0) {
    return InternalError("replay sample has no ELF binaries");
  }
  const double n = static_cast<double>(binaries);
  report.Metric("corpus.synth_us_per_binary", synth_s / n * 1e6, "us");
  report.Metric("elf.parse_us_per_binary", parse_s / n * 1e6, "us");
  report.Metric("disasm.sweep_mib_per_s",
                static_cast<double>(swept_bytes) / (1 << 20) / sweep_s,
                "MiB/s");
  report.Metric("analysis.analyze_us_per_binary", analyze_s / n * 1e6, "us");
  report.Metric("cache.encode_us_per_entry", encode_s / n * 1e6, "us");
  report.Metric("cache.decode_us_per_entry", decode_s / n * 1e6, "us");
  report.Info("replay_binaries", n);

  // The survey on its own, with the marginals and options RunStudy uses.
  LAPIS_ASSIGN_OR_RETURN(auto repository, synthesizer.BuildRepository());
  std::vector<double> marginals;
  marginals.reserve(spec.packages.size());
  for (const auto& plan : spec.packages) {
    marginals.push_back(plan.target_marginal);
  }
  package::PopconOptions popcon;
  popcon.installation_count = study_options.distro.installation_count;
  popcon.report_rate = study_options.distro.popcon_report_rate;
  popcon.seed = study_options.distro.seed ^ 0x9e3779b97f4a7c15ULL;
  double t = MonotonicSeconds();
  {
    ScopedSpan span(tracer, "package.popcon");
    LAPIS_ASSIGN_OR_RETURN(auto survey, package::PopconSimulator::Run(
                                            repository, marginals, popcon));
    (void)survey;
  }
  report.Metric("popcon.installs_per_s",
                static_cast<double>(popcon.installation_count) /
                    (MonotonicSeconds() - t),
                "1/s");
  return Status::Ok();
}

Result<std::string> ReadDigest() {
  std::ifstream in(kDigestFile);
  std::string digest;
  if (!(in >> digest)) {
    return NotFoundError(std::string("missing set-up output ") + kDigestFile);
  }
  return digest;
}

// Why `result` is wrong, or "" when it matches the set-up reference.
std::string StudyProblem(const corpus::StudyResult& result,
                         const std::string& reference, Tracer& tracer) {
  std::string digest;
  {
    ScopedSpan span(tracer, "core.export");
    digest = ExportDigest(*result.dataset, result.path_interner,
                          result.libc_interner);
  }
  if (result.ground_truth_mismatches != 0) {
    return "ground-truth mismatches";
  }
  if (digest != reference) {
    return "export digest " + digest + " != set-up " + reference;
  }
  return "";
}

// Re-runs the study against the cache the cold iterations left behind:
// the warm path users take on a re-run. Every entry must hit and the
// exports must match the uncached reference.
void MeasureWarm(const corpus::StudyOptions& study_options,
                 const std::string& reference, Tracer& tracer,
                 Report& report) {
  std::vector<double> walls, hit_rates, kib_read;
  uint64_t failed = 0;
  for (size_t i = 0; i < kWarmIterations; ++i) {
    double start = MonotonicSeconds();
    std::optional<Result<corpus::StudyResult>> study;
    {
      ScopedSpan span(tracer, "study.warm_run", i + 1);
      study.emplace(corpus::RunStudy(study_options));
    }
    walls.push_back(MonotonicSeconds() - start);
    std::string problem;
    if (!study->ok()) {
      problem = study->status().ToString();
    } else {
      const corpus::StudyResult& result = study->value();
      problem = StudyProblem(result, reference, tracer);
      if (problem.empty() && result.cache_stats.HitRate() != 1.0) {
        problem = "warm cache hit rate below 1.0";
      }
      hit_rates.push_back(result.cache_stats.HitRate());
      kib_read.push_back(static_cast<double>(result.cache_stats.bytes_read) /
                         1024.0);
    }
    if (!problem.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: warm study %zu failed: %s\n", i + 1,
                   problem.c_str());
    }
  }
  report.Metric("study.warm_s", Median(walls), "s");
  report.Metric("cache.hit_rate", Median(hit_rates), "ratio");
  report.Metric("cache.kib_read", Median(kib_read), "KiB");
  report.Attempt(kWarmIterations, failed);
}

}  // namespace

Status SetupStudy(uint64_t seed, Report& report) {
  // The reference every timed iteration is checked against: the same
  // study without a cache.
  double start = MonotonicSeconds();
  auto study = corpus::RunStudy(StudyWorkloadOptions(seed));
  if (!study.ok()) {
    return study.status();
  }
  const corpus::StudyResult& result = study.value();
  if (result.ground_truth_mismatches != 0) {
    return InternalError("set-up study has ground-truth mismatches");
  }
  std::ofstream out(kDigestFile, std::ios::trunc);
  out << ExportDigest(*result.dataset, result.path_interner,
                      result.libc_interner)
      << "\n";
  out.close();
  if (!out) {
    return IoError(std::string("cannot write ") + kDigestFile);
  }
  report.Metric("setup_s", MonotonicSeconds() - start, "s");
  return Status::Ok();
}

Status MeasureStudy(const MeasureOptions& options, Report& report) {
  LAPIS_ASSIGN_OR_RETURN(std::string reference, ReadDigest());
  Tracer& tracer = *options.tracer;
  corpus::StudyOptions study_options = StudyWorkloadOptions(options.seed);
  study_options.cache_dir = kCacheDir;

  std::vector<double> walls, untimed, teardowns, cpu_per_wall;
  std::map<std::string, std::vector<double>> stage_walls;
  std::vector<double> resolve_cpu_per_wall, tasks, steals, kib_written;
  double known_site_ratio = 0.0;
  uint64_t failed = 0;
  std::error_code ec;

  const double deadline = MonotonicSeconds() + options.seconds;
  while (walls.size() < kMinIterations || MonotonicSeconds() < deadline) {
    std::filesystem::remove_all(kCacheDir, ec);
    double cpu_start = runtime::ProcessCpuSeconds();
    double start = MonotonicSeconds();
    std::optional<Result<corpus::StudyResult>> study;
    {
      ScopedSpan span(tracer, "study.run", walls.size() + 1);
      study.emplace(corpus::RunStudy(study_options));
    }
    double wall = MonotonicSeconds() - start;
    walls.push_back(wall);
    cpu_per_wall.push_back((runtime::ProcessCpuSeconds() - cpu_start) / wall);

    std::string problem;
    if (!study->ok()) {
      problem = study->status().ToString();
    } else {
      const corpus::StudyResult& result = study->value();
      problem = StudyProblem(result, reference, tracer);
      untimed.push_back(wall - result.pipeline_stats.TotalWallSeconds());
      for (const auto& [stage, metric] : ReportedStages()) {
        const runtime::StageRecord* record =
            result.pipeline_stats.Find(stage);
        stage_walls[metric].push_back(record ? record->wall_seconds : 0.0);
        if (stage == "resolve" && record && record->wall_seconds > 0) {
          resolve_cpu_per_wall.push_back(record->cpu_seconds /
                                         record->wall_seconds);
        }
      }
      tasks.push_back(
          static_cast<double>(result.executor_stats.tasks_executed));
      steals.push_back(static_cast<double>(result.executor_stats.steals));
      kib_written.push_back(
          static_cast<double>(result.cache_stats.bytes_written) / 1024.0);
      if (result.total_syscall_sites > 0) {
        known_site_ratio =
            static_cast<double>(result.total_syscall_sites -
                                result.unknown_syscall_sites) /
            static_cast<double>(result.total_syscall_sites);
      }
    }
    if (!problem.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: study iteration %zu failed: %s\n",
                   walls.size(), problem.c_str());
    }

    double teardown_start = MonotonicSeconds();
    {
      ScopedSpan span(tracer, "study.teardown");
      study.reset();
    }
    teardowns.push_back(MonotonicSeconds() - teardown_start);
  }
  report.Attempt(walls.size(), failed);

  report.Metric("op_p50_ms", Median(walls) * 1e3, "ms");
  report.Info("op_samples_s", walls);
  report.Info("cache_fsync_policy", EnvStringOr("LAPIS_CACHE_FSYNC", "never"));

  report.Metric("study.untimed_s", Median(untimed), "s");
  report.Metric("study.teardown_s", Median(teardowns), "s");
  for (const auto& [metric, samples] : stage_walls) {
    report.Metric(metric, Median(samples), "s");
  }
  report.Metric("stage.resolve.cpu_per_wall", Median(resolve_cpu_per_wall),
                "ratio");
  report.Metric("runtime.tasks", Median(tasks), "count");
  report.Metric("runtime.steals", Median(steals), "count");
  report.Metric("runtime.cpu_per_wall", Median(cpu_per_wall), "ratio");
  report.Metric("cache.kib_written", Median(kib_written), "KiB");
  report.Metric("analysis.known_site_ratio", known_site_ratio, "ratio");

  if (tracer.enabled()) {
    // Per-layer probes, after the timed window: they do not move the
    // end-to-end metrics, which come from untraced runs.
    MeasureWarm(study_options, reference, tracer, report);
    LAPIS_RETURN_IF_ERROR(
        ReplayLayers(study_options, options.seed, tracer, report));
  }
  std::filesystem::remove_all(kCacheDir, ec);
  return Status::Ok();
}

}  // namespace lapis::perfbench
