#include "perfbench/workloads.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <thread>

#include "src/cache/content_hash.h"
#include "src/core/report.h"
#include "src/corpus/dataset_io.h"
#include "src/runtime/stage_stats.h"
#include "src/util/prng.h"

namespace lapis::perfbench {

namespace {

// The workload seed picks the synthetic distribution; it is mixed so that
// neighbouring seeds give unrelated corpora.
uint64_t CorpusSeed(uint64_t seed) { return SplitMix64(seed).Next(); }

}  // namespace

corpus::StudyOptions StudyWorkloadOptions(uint64_t seed) {
  corpus::StudyOptions options;
  options.distro.app_package_count = 3000;
  options.distro.installation_count = 100000;
  options.distro.seed = CorpusSeed(seed);
  options.analyzer.use_dataflow = true;
  options.jobs = std::max(1u, std::thread::hardware_concurrency());
  return options;
}

corpus::StudyOptions ArtifactStudyOptions(uint64_t seed) {
  corpus::StudyOptions options;
  options.distro.app_package_count = 1000;
  options.distro.installation_count = 50000;
  options.distro.seed = CorpusSeed(seed);
  options.analyzer.use_dataflow = true;
  options.audit = true;
  options.jobs = std::max(1u, std::thread::hardware_concurrency());
  return options;
}

std::string ExportDigest(const core::StudyDataset& dataset,
                         const core::StringInterner& path_interner,
                         const core::StringInterner& libc_interner) {
  std::ostringstream os;
  Status status = core::ExportImportanceTsv(
      dataset,
      {core::ApiKind::kSyscall, core::ApiKind::kIoctlOp,
       core::ApiKind::kFcntlOp, core::ApiKind::kPrctlOp,
       core::ApiKind::kPseudoFile, core::ApiKind::kLibcFn},
      path_interner, libc_interner, os);
  if (status.ok()) {
    status = core::ExportPackagesTsv(dataset, os);
  }
  if (status.ok()) {
    status = core::ExportFootprintsTsv(dataset, path_interner, libc_interner,
                                       os);
  }
  if (!status.ok()) {
    return "export-failed: " + status.ToString();
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(cache::HashString(os.str())));
  return hex;
}

Status SetupArtifact(uint64_t seed, Report& report) {
  double start = runtime::MonotonicSeconds();
  auto study = corpus::RunStudy(ArtifactStudyOptions(seed));
  if (!study.ok()) {
    return study.status();
  }
  if (study.value().ground_truth_mismatches != 0) {
    return InternalError("artifact study has ground-truth mismatches");
  }
  if (!study.value().audit.has_value() ||
      study.value().evidence_kinds_mask == 0) {
    return InternalError("artifact study carries no audit evidence");
  }
  LAPIS_RETURN_IF_ERROR(corpus::SaveStudy(study.value(), kArtifactFile));
  report.Metric("setup_s", runtime::MonotonicSeconds() - start, "s");
  return Status::Ok();
}

}  // namespace lapis::perfbench
