// The benchmark's workloads, study_cold and serve_mixed. Each has a set-up
// step that writes its inputs into the current directory and a measure
// step, run in a separate process, that reads them back and times the
// workload for a fixed window. Both record into a Report; README.md gives
// each workload's rationale.

#ifndef LAPIS_PERFBENCH_WORKLOADS_H_
#define LAPIS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/core/api_id.h"
#include "src/core/dataset.h"
#include "src/corpus/study_runner.h"
#include "src/util/status.h"

namespace lapis::perfbench {

struct MeasureOptions {
  uint64_t seed = 0;
  double seconds = 10.0;
  Tracer* tracer = nullptr;  // never null; disabled when not tracing
};

// Study at benchmark scale (study_cold): 3000 app packages, 100k
// installations, dataflow tier, one worker per core.
corpus::StudyOptions StudyWorkloadOptions(uint64_t seed);

// The audited study serve_mixed serves (1000 apps, 50k installations).
corpus::StudyOptions ArtifactStudyOptions(uint64_t seed);

// FNV-1a digest (hex) of the study's TSV exports, the byte-identical
// output contract of `lapis_study --export-dir`.
std::string ExportDigest(const core::StudyDataset& dataset,
                         const core::StringInterner& path_interner,
                         const core::StringInterner& libc_interner);

Status SetupStudy(uint64_t seed, Report& report);
Status MeasureStudy(const MeasureOptions& options, Report& report);

Status SetupArtifact(uint64_t seed, Report& report);
Status MeasureServe(const MeasureOptions& options, Report& report);
// The planner's per-layer metrics on the set-up artifact; traced
// serve_mixed runs add them after the timed window.
Status MeasurePlanLayer(const MeasureOptions& options, Report& report);

// File names inside the work directory.
inline constexpr const char* kDigestFile = "reference.digest";
inline constexpr const char* kArtifactFile = "artifact.bin";

}  // namespace lapis::perfbench

#endif  // LAPIS_PERFBENCH_WORKLOADS_H_
