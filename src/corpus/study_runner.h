// End-to-end study orchestration: the lapis public entry point.
//
// RunStudy() executes the whole paper pipeline:
//   1. Build the calibrated distribution plan (distro_spec.h) and simulate
//      the popularity-contest survey (src/package).
//   2. Libraries phase: synthesize the core and package shared libraries
//      (binary_synth.h), analyze them (src/analysis: disassembly, call
//      graphs, constant back-tracking) and register them for
//      cross-library resolution.
//   3. Executables phase: each package shard synthesizes its executables,
//      takes them one at a time through analysis, resolution and (under
//      audit) a replay, dropping each analysis before the next, and checks
//      the package against the plan's ground truth.
//   4. Join footprints with installation counts into a StudyDataset
//      (src/core).
//
// Benches and examples consume the returned StudyResult.

#ifndef LAPIS_SRC_CORPUS_STUDY_RUNNER_H_
#define LAPIS_SRC_CORPUS_STUDY_RUNNER_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/audit.h"
#include "src/analysis/binary_analyzer.h"
#include "src/cache/footprint_cache.h"
#include "src/core/api_id.h"
#include "src/core/dataset.h"
#include "src/corpus/binary_synth.h"
#include "src/corpus/distro_spec.h"
#include "src/package/popcon.h"
#include "src/package/repository.h"
#include "src/runtime/executor.h"
#include "src/runtime/stage_stats.h"
#include "src/util/status.h"

namespace lapis::corpus {

struct StudyOptions {
  DistroOptions distro;
  // Static-analysis methodology switches. `analyzer.use_dataflow` is the
  // ablation lever: true = CFG constant propagation (default), false = the
  // soundness-fixed linear baseline.
  analysis::AnalyzerOptions analyzer;
  // Differentially replay every executable in the DynamicTracer against its
  // resolved static footprint (audit.h) and attach the AuditReport. The
  // replay reuses the analysis's parse; exports are the same without it.
  bool audit = false;
  // Retain joint popcon samples for the independence ablation.
  uint64_t popcon_retain_samples = 0;
  // Install-profile correlation (see package::PopconOptions); 0 = off.
  uint32_t popcon_profile_count = 0;
  // Worker threads for the pipeline: 0 = runtime::DefaultJobs(),
  // 1 = fully sequential (no threads spawned). Dataset exports are
  // byte-identical at every jobs value.
  size_t jobs = 0;
  // Content-addressed incremental cache (src/cache). Non-empty `cache_dir`
  // opens (creating if needed) the store there for this run; on a hit the
  // whole per-binary analysis chain (ELF parse, linear sweep, CFG,
  // dataflow, IPA) or the popcon survey is skipped. Library reach and
  // executable resolution always run, on the restored analyses: rebuilding
  // them costs less than decoding them would. What a run computes serves
  // the next run on the same directory, and is closed after its last
  // lookup. Exports are byte-identical cold vs. warm.
  std::string cache_dir;
};

struct BinaryStats {
  size_t elf_executables = 0;
  size_t elf_shared_libraries = 0;
  size_t elf_static = 0;
  std::map<package::ProgramKind, size_t> script_programs;

  size_t TotalElf() const {
    return elf_executables + elf_shared_libraries + elf_static;
  }
};

struct StudyResult {
  DistroSpec spec;
  package::Repository repository;
  package::PopconSurvey survey;
  std::unique_ptr<core::StudyDataset> dataset;

  // Interners: ApiId::code for kPseudoFile / kLibcFn resolves through these.
  core::StringInterner path_interner;
  core::StringInterner libc_interner;

  // Which binaries contain direct call sites for each syscall (Table 1/5
  // attribution; binary name = executable name or library soname).
  std::map<int, std::set<std::string>> syscall_site_binaries;

  // Measured libc per-symbol code sizes (from the synthesized libc's
  // .symtab), keyed by interned symbol id (§3.5 size model).
  std::map<uint32_t, uint64_t> libc_symbol_sizes;

  BinaryStats binary_stats;

  // Analysis health.
  int total_syscall_sites = 0;
  int unknown_syscall_sites = 0;
  // Legacy int $0x80 usage (i386 numbering).
  int int80_sites = 0;
  std::set<int> int80_numbers;
  size_t ground_truth_mismatches = 0;
  size_t analyzed_binaries = 0;

  // Analyzer switches the run used (echoed from StudyOptions::analyzer).
  analysis::AnalyzerOptions analyzer_options;
  // Footprint soundness audit (present iff StudyOptions::audit was set).
  std::optional<analysis::AuditReport> audit;

  // Corpus-wide dynamic-replay evidence, the audit's observed_union lifted
  // to ApiIds (pseudo paths resolved through path_interner). Empty mask =
  // no audit ran; bit (1 << kind) marks each instrumented ApiKind, so the
  // planner can tell "not observed" from "not instrumented".
  uint8_t evidence_kinds_mask = 0;
  std::set<core::ApiId> evidence_observed;

  // Per-package binary counts with hard-coded pseudo paths (Fig 6 counts).
  std::map<std::string, size_t> pseudo_path_binary_counts;

  // Parallel-pipeline accounting: wall/CPU per stage, plus the executor's
  // task counter for the run.
  runtime::PipelineStats pipeline_stats;
  runtime::ExecutorStats executor_stats;
  size_t jobs_used = 1;

  // Incremental-cache accounting for this run (all-zero when no cache was
  // configured).
  bool cache_enabled = false;
  cache::CacheStats cache_stats;
  size_t analyses_from_cache = 0;  // binaries restored via kAnalysis hits
};

Result<StudyResult> RunStudy(const StudyOptions& options);

// A small, fast configuration for unit/integration tests.
StudyOptions SmallStudyOptions();

}  // namespace lapis::corpus

#endif  // LAPIS_SRC_CORPUS_STUDY_RUNNER_H_
