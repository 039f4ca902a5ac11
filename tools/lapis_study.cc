// lapis-study: the end-to-end study driver.
//
// Generates the synthetic distribution, runs the full static-analysis
// pipeline, joins it with the simulated popularity survey, and then either
// saves the dataset artifact, exports TSV tables, evaluates a prototype's
// syscall list, or prints the headline summary. A saved artifact reloads
// in milliseconds for metric queries without regeneration, and lapis_plan
// computes support plans from it.
//
// Examples:
//   lapis_study --apps=3000 --save=study.bin
//   lapis_study --load=study.bin --top=25
//   lapis_study --load=study.bin --eval="read,write,open,close,mmap,exit"
//   lapis_study --export-dir=/tmp/lapis

#include <cstdio>
#include <fstream>
#include <iostream>

#include "src/cache/content_hash.h"
#include "src/core/completeness.h"
#include "src/core/report.h"
#include "src/corpus/dataset_io.h"
#include "src/corpus/study_runner.h"
#include "src/corpus/syscall_table.h"
#include "src/corpus/system_profiles.h"
#include "src/util/env.h"
#include "src/util/flags.h"
#include "src/util/strings.h"
#include "src/util/table_writer.h"

using namespace lapis;

namespace {

int EvaluateSyscallList(const core::StudyDataset& dataset,
                        const std::string& list) {
  core::SystemProfile profile;
  profile.name = "cli";
  for (const auto& name : Split(list, ',')) {
    if (name.empty()) {
      continue;
    }
    auto nr = corpus::SyscallNumber(name);
    if (!nr.has_value()) {
      std::fprintf(stderr, "unknown syscall: %s\n", name.c_str());
      return 1;
    }
    profile.supported.insert(core::SyscallApi(static_cast<uint32_t>(*nr)));
  }
  auto eval = core::EvaluateSystem(dataset, profile, 8);
  std::printf("supported syscalls : %zu\n", eval.supported_count);
  std::printf("weighted completeness: %s\n",
              FormatPercent(eval.weighted_completeness, 2).c_str());
  std::printf("suggested additions:");
  for (const auto& api : eval.suggested) {
    std::printf(" %s", std::string(corpus::SyscallName(
        static_cast<int>(api.code))).c_str());
  }
  std::printf("\nwith those added   : %s\n",
              FormatPercent(eval.completeness_with_suggestions, 2).c_str());
  return 0;
}

void PrintTop(const core::StudyDataset& dataset, int64_t top) {
  TableWriter table({"API", "Importance", "Unweighted", "Dependents"});
  auto ranked = dataset.RankByImportance(core::ApiKind::kSyscall,
                                         corpus::FullSyscallUniverse());
  for (int64_t i = 0; i < top && i < static_cast<int64_t>(ranked.size());
       ++i) {
    const auto& api = ranked[static_cast<size_t>(i)];
    table.AddRow({std::string(corpus::SyscallName(
                      static_cast<int>(api.code))),
                  FormatPercent(dataset.ApiImportance(api)),
                  FormatPercent(dataset.UnweightedImportance(api)),
                  std::to_string(dataset.Dependents(api).size())});
  }
  table.Print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(
      "lapis-study: generate/load the API-usage study and query it");
  flags.AddInt("apps", 3000, "application packages to generate");
  flags.AddInt("installs", 100000, "installations to simulate");
  flags.AddInt("seed", 20160418, "corpus generation seed");
  flags.AddString("save", "", "write the dataset artifact to this path");
  flags.AddString("load", "",
                  "load a saved artifact instead of generating");
  flags.AddString("export-dir", "",
                  "write api_importance/packages/footprints TSVs here");
  flags.AddString("eval", "",
                  "comma-separated syscall names: evaluate a prototype");
  flags.AddInt("top", 0, "print the N most important syscalls");
  flags.AddInt("jobs", 0,
               "worker threads for the pipeline (0 = all cores, 1 = "
               "sequential); exports are identical at any value");
  flags.AddString("analysis", "dataflow",
                  "analysis tier: linear (sound sweep baseline), dataflow "
                  "(CFG join), or ipa (interprocedural wrapper "
                  "back-tracking)");
  flags.AddBool("audit", false,
                "differentially replay every executable against its "
                "static footprint and report soundness/precision");
  flags.AddString("cache-dir", "",
                  "content-addressed incremental cache directory (default: "
                  "$LAPIS_CACHE_DIR; empty = no cache); warm runs skip the "
                  "per-binary analysis pipeline with identical output");
  flags.AddBool("version", false,
                "print the study-artifact and cache schema versions and "
                "exit");
  auto status = flags.Parse(argc - 1, argv + 1);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::fputs(flags.Usage().c_str(), stdout);
    return 0;
  }
  const std::string& analysis_mode = flags.GetString("analysis");
  if (analysis_mode != "dataflow" && analysis_mode != "linear" &&
      analysis_mode != "ipa") {
    std::fprintf(stderr,
                 "--analysis must be 'dataflow', 'linear', or 'ipa' "
                 "(got %s)\n",
                 analysis_mode.c_str());
    return 2;
  }
  if (auto range = flags.CheckIntRange({"apps", "installs", "jobs"}, 0);
      !range.ok()) {
    std::fprintf(stderr, "%s\n", range.message().c_str());
    return 2;
  }
  if (flags.GetBool("version")) {
    // Operators diff these against a daemon's banner to spot stale
    // artifacts or caches before they bite.
    std::printf(
        "lapis_study study artifact schema v%u, cache schema v%u, "
        "analysis tier %s\n",
        corpus::kStudyArtifactVersion, cache::kCacheSchemaVersion,
        analysis_mode.c_str());
    return 0;
  }

  std::unique_ptr<core::StudyDataset> dataset;
  core::StringInterner path_interner;
  core::StringInterner libc_interner;

  if (!flags.GetString("load").empty()) {
    auto artifact = corpus::LoadStudy(flags.GetString("load"));
    if (!artifact.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   artifact.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(artifact.value().dataset);
    path_interner = std::move(artifact.value().path_interner);
    libc_interner = std::move(artifact.value().libc_interner);
    std::printf("loaded artifact: %zu packages, %s installations\n",
                dataset->package_count(),
                FormatWithCommas(dataset->total_installations()).c_str());
  } else {
    corpus::StudyOptions options;
    options.distro.app_package_count =
        static_cast<size_t>(flags.GetInt("apps"));
    options.distro.installation_count =
        static_cast<uint64_t>(flags.GetInt("installs"));
    options.distro.seed = static_cast<uint64_t>(flags.GetInt("seed"));
    options.jobs = static_cast<size_t>(flags.GetInt("jobs"));
    if (analysis_mode == "dataflow") {
      options.analyzer.use_dataflow = true;
    } else if (analysis_mode == "linear") {
      options.analyzer.use_dataflow = false;
    } else {  // ipa: interprocedural pass on top of the dataflow fixpoint
      options.analyzer.use_dataflow = true;
      options.analyzer.use_ipa = true;
    }
    options.audit = flags.GetBool("audit");
    options.cache_dir = flags.GetString("cache-dir").empty()
                            ? EnvStringOr("LAPIS_CACHE_DIR", "")
                            : flags.GetString("cache-dir");
    std::printf("generating corpus and running the analysis pipeline "
                "(analysis tier: %s)...\n",
                analysis_mode.c_str());
    auto study = corpus::RunStudy(options);
    if (!study.ok()) {
      std::fprintf(stderr, "study failed: %s\n",
                   study.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "analyzed %zu binaries across %zu packages "
        "(ground-truth mismatches: %zu)\n",
        study.value().analyzed_binaries, study.value().spec.packages.size(),
        study.value().ground_truth_mismatches);
    std::printf("syscall sites: %d total, %d unknown\n",
                study.value().total_syscall_sites,
                study.value().unknown_syscall_sites);
    if (study.value().audit.has_value()) {
      std::printf("%s\n", study.value().audit->Summary().c_str());
      for (const auto& flagged : study.value().audit->flagged) {
        for (const auto& finding : flagged.violations) {
          std::printf("  VIOLATION %s: %s\n", flagged.name.c_str(),
                      finding.Describe().c_str());
        }
      }
    }
    const auto& xstats = study.value().executor_stats;
    std::printf("pipeline: %zu worker thread(s), %zu tasks executed\n",
                study.value().jobs_used, xstats.tasks_executed);
    for (const auto& [stage, record] : study.value().pipeline_stats.stages()) {
      std::printf("  stage %-20s %7.2fs wall  %7.2fs cpu  %zu items\n",
                  stage.c_str(), record.wall_seconds, record.cpu_seconds,
                  record.items);
    }
    if (study.value().cache_enabled) {
      const auto& cs = study.value().cache_stats;
      std::printf(
          "cache (schema v%u): %llu hits / %llu lookups (%.1f%%), %zu/%zu "
          "analyses restored, %llu KiB read, %llu KiB written, %llu "
          "corrupt entries dropped\n",
          cache::kCacheSchemaVersion,
          static_cast<unsigned long long>(cs.hits),
          static_cast<unsigned long long>(cs.Lookups()),
          100.0 * cs.HitRate(), study.value().analyses_from_cache,
          study.value().analyzed_binaries,
          static_cast<unsigned long long>(cs.bytes_read / 1024),
          static_cast<unsigned long long>(cs.bytes_written / 1024),
          static_cast<unsigned long long>(cs.corrupt_entries_dropped));
      if (cs.truncated_tails > 0 || cs.open_failures > 0 ||
          cs.quarantined_shards > 0) {
        std::printf(
            "cache recovery: %llu truncated tails, %llu shard open "
            "failures, %llu shards quarantined (write-back off)\n",
            static_cast<unsigned long long>(cs.truncated_tails),
            static_cast<unsigned long long>(cs.open_failures),
            static_cast<unsigned long long>(cs.quarantined_shards));
      }
    }
    if (!flags.GetString("save").empty()) {
      auto save = corpus::SaveStudy(study.value(), flags.GetString("save"));
      if (!save.ok()) {
        std::fprintf(stderr, "save failed: %s\n",
                     save.ToString().c_str());
        return 1;
      }
      std::printf("saved artifact to %s\n", flags.GetString("save").c_str());
    }
    dataset = std::move(study.value().dataset);
    path_interner = std::move(study.value().path_interner);
    libc_interner = std::move(study.value().libc_interner);
  }

  if (!flags.GetString("export-dir").empty()) {
    const std::string& dir = flags.GetString("export-dir");
    std::ofstream importance(dir + "/api_importance.tsv");
    std::ofstream packages(dir + "/packages.tsv");
    std::ofstream footprints(dir + "/footprints.tsv");
    for (const Status& export_status :
         {core::ExportImportanceTsv(
              *dataset,
              {core::ApiKind::kSyscall, core::ApiKind::kIoctlOp,
               core::ApiKind::kFcntlOp, core::ApiKind::kPrctlOp,
               core::ApiKind::kPseudoFile, core::ApiKind::kLibcFn},
              path_interner, libc_interner, importance),
          core::ExportPackagesTsv(*dataset, packages),
          core::ExportFootprintsTsv(*dataset, path_interner, libc_interner,
                                    footprints)}) {
      if (!export_status.ok()) {
        std::fprintf(stderr, "export failed: %s\n",
                     export_status.ToString().c_str());
        return 1;
      }
    }
    std::printf("exported TSVs to %s\n", dir.c_str());
  }

  if (!flags.GetString("eval").empty()) {
    return EvaluateSyscallList(*dataset, flags.GetString("eval"));
  }
  if (flags.GetInt("top") > 0) {
    PrintTop(*dataset, flags.GetInt("top"));
    return 0;
  }

  // Default: headline summary.
  size_t at_100 = 0;
  for (int nr = 0; nr < corpus::kSyscallCount; ++nr) {
    at_100 += dataset->ApiImportance(core::SyscallApi(
                  static_cast<uint32_t>(nr))) > 0.995
                  ? 1
                  : 0;
  }
  std::printf("\nheadline: %zu of 320 syscalls are indispensable "
              "(importance ~100%%)\n",
              at_100);
  std::printf("try --top=25, --eval=read,write,... or --export-dir=DIR\n");
  return 0;
}
