// lapis_perfbench: one phase of one benchmark workload per process, so each
// process's peak RSS belongs to that phase alone. run.py drives it:
//
//   lapis_perfbench setup   --workload=W --seed=N --dir=D
//   lapis_perfbench measure --workload=W --seed=N --dir=D --seconds=S
//                           [--trace-file=F]
//
// `setup` writes the workload's inputs into D; `measure` reads them back
// and times the workload for S seconds. Either prints its results as one
// JSON line on stdout.

#include <cstdio>
#include <filesystem>
#include <string>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"
#include "src/runtime/stage_stats.h"
#include "src/util/flags.h"

using namespace lapis;
using namespace lapis::perfbench;

namespace {

// The layers whose traced self time is reported: the src/ modules the
// workloads call into, plus the benchmark's own request queueing.
constexpr const char* kTracedLayers[] = {
    "study", "corpus", "elf",  "disasm", "analysis", "cache",
    "package", "core", "serve", "plan", "perfbench"};

bool KnownWorkload(const std::string& name) {
  return name == "study_cold" || name == "serve_mixed";
}

Status Setup(const std::string& workload, uint64_t seed, Report& report) {
  if (workload == "study_cold") {
    return SetupStudy(seed, report);
  }
  return SetupArtifact(seed, report);
}

Status Measure(const std::string& workload, const MeasureOptions& options,
               Report& report) {
  if (workload == "study_cold") {
    return MeasureStudy(options, report);
  }
  LAPIS_RETURN_IF_ERROR(MeasureServe(options, report));
  return options.tracer->enabled() ? MeasurePlanLayer(options, report)
                                   : Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags("lapis_perfbench: set up or measure one workload");
  flags.AddString("workload", "", "study_cold or serve_mixed");
  flags.AddInt("seed", 1, "workload seed: same seed, same inputs");
  flags.AddString("dir", "", "work directory holding the workload's inputs");
  flags.AddDouble("seconds", 10.0, "measurement window (measure only)");
  flags.AddString("trace-file", "",
                  "record spans and write them here as Chrome trace-event "
                  "JSON (measure only)");
  const std::string command = argc > 1 ? argv[1] : "";
  Status status = argc > 1 ? flags.Parse(argc - 2, argv + 2) : Status::Ok();
  if ((command != "setup" && command != "measure") || !status.ok() ||
      !KnownWorkload(flags.GetString("workload")) ||
      flags.GetString("dir").empty() || flags.GetInt("seed") < 0 ||
      flags.GetDouble("seconds") <= 0) {
    std::fprintf(stderr, "%s\nusage: lapis_perfbench setup|measure ...\n%s",
                 status.ToString().c_str(), flags.Usage().c_str());
    return 2;
  }
  const std::string reason = UnfitForTimingReason();
  if (!reason.empty()) {
    std::fprintf(stderr, "lapis_perfbench: refusing to report: %s\n",
                 reason.c_str());
    return 3;
  }
  // Resolve the trace path before entering the work directory.
  std::string trace_file = flags.GetString("trace-file");
  if (!trace_file.empty()) {
    trace_file = std::filesystem::absolute(trace_file).string();
  }
  std::error_code ec;
  std::filesystem::current_path(flags.GetString("dir"), ec);
  if (ec) {
    std::fprintf(stderr, "lapis_perfbench: cannot enter %s: %s\n",
                 flags.GetString("dir").c_str(), ec.message().c_str());
    return 2;
  }

  const std::string workload = flags.GetString("workload");
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed"));
  Report report;
  AddBuildAndHost(report);
  if (command == "setup") {
    status = Setup(workload, seed, report);
  } else {
    Tracer tracer(!trace_file.empty());
    MeasureOptions options;
    options.seed = seed;
    options.seconds = flags.GetDouble("seconds");
    options.tracer = &tracer;
    status = Measure(workload, options, report);
    report.Metric("peak_rss_mib",
                  static_cast<double>(runtime::PeakRssKib()) / 1024.0, "MiB");
    if (status.ok() && tracer.enabled()) {
      const auto self = tracer.SelfSecondsByLayer();
      for (const char* layer : kTracedLayers) {
        auto it = self.find(layer);
        report.Metric(std::string("self_ms.") + layer,
                      it == self.end() ? 0.0 : it->second * 1e3, "ms");
      }
      report.Metric("trace.spans", static_cast<double>(tracer.size()),
                    "count");
      status = tracer.WriteChromeTrace(trace_file);
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "lapis_perfbench %s %s: %s\n", command.c_str(),
                 workload.c_str(), status.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
