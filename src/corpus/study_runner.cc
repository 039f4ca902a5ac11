#include "src/corpus/study_runner.h"

#include <algorithm>
#include <memory>
#include <string>

#include "src/analysis/binary_analyzer.h"
#include "src/analysis/library_resolver.h"
#include "src/analysis/script_scanner.h"
#include "src/cache/analysis_codec.h"
#include "src/cache/content_hash.h"
#include "src/cache/survey_codec.h"
#include "src/corpus/api_join.h"
#include "src/corpus/api_universe.h"
#include "src/elf/elf_reader.h"
#include "src/runtime/parallel.h"

namespace lapis::corpus {

namespace {

using analysis::BinaryAnalysis;
using analysis::BinaryAnalyzer;
using analysis::LibraryResolver;
using cache::AnalysisCodec;
using cache::FootprintCache;

// One synthesized binary after the per-binary analysis fan-out. The raw
// ELF bytes are dropped inside the worker shard; only the analysis
// (everything downstream needs) and, for a library under audit, the parsed
// image the tracer follows calls into survive.
struct AnalyzedBinary {
  std::string name;
  bool is_library = false;
  bool is_static = false;
  bool from_cache = false;
  std::shared_ptr<const BinaryAnalysis> analysis;
  std::shared_ptr<const elf::ElfImage> image;  // audited libraries only
};

// Per-run cache context threaded through the pipeline stages. `cache` may be
// null (cache disabled); the fingerprint is computed once per run.
struct CacheContext {
  FootprintCache* cache = nullptr;
  uint64_t analysis_fp = 0;

  explicit operator bool() const { return cache != nullptr; }
};

// Analyzes one ELF binary into `out`, going through the cache when
// enabled: on a hit the serialized BinaryAnalysis is decoded (no
// parse/sweep/CFG/dataflow); on a miss (or an undecodable payload) the
// analysis runs and is written back. With `keep_image` the parsed image is
// kept too, parsing even on a hit. Safe on any worker shard.
Status AnalyzeInto(const std::vector<uint8_t>& bytes,
                   const analysis::AnalyzerOptions& analyzer,
                   const CacheContext& ctx, bool keep_image,
                   AnalyzedBinary& out) {
  cache::CacheKey key;
  if (ctx) {
    key = {cache::HashBytes(bytes), ctx.analysis_fp};
    auto payload = ctx.cache->Lookup(key);
    if (payload.has_value()) {
      ByteReader reader(*payload);
      auto decoded = AnalysisCodec::Decode(reader);
      if (decoded.ok()) {
        out.from_cache = true;
        out.analysis = std::make_shared<BinaryAnalysis>(decoded.take());
      }
      // Undecodable payload: treat as a miss and recompute.
    }
  }
  if (out.analysis != nullptr && !keep_image) {
    return Status::Ok();
  }
  LAPIS_ASSIGN_OR_RETURN(auto image, elf::ElfReader::Parse(bytes));
  if (out.analysis == nullptr) {
    LAPIS_ASSIGN_OR_RETURN(auto analysis,
                           BinaryAnalyzer::Analyze(image, analyzer));
    out.analysis = std::make_shared<BinaryAnalysis>(std::move(analysis));
    if (ctx) {
      ByteWriter writer;
      AnalysisCodec::Encode(*out.analysis, writer);
      ctx.cache->Insert(key, writer.bytes());
    }
  }
  if (keep_image) {
    out.image = std::make_shared<const elf::ElfImage>(std::move(image));
  }
  return Status::Ok();
}

// Shard result of the synthesize+analyze stage for one package.
struct PackageAnalysis {
  Status status;  // first synthesis/parse/analysis error, if any
  std::vector<AnalyzedBinary> binaries;
  // Script programs by kind (Fig 1), measured by scanning the synthesized
  // script files' shebangs, not by trusting the plan.
  std::map<package::ProgramKind, size_t> script_kinds;
};

// Shard result of the resolve stage for one package: its executables'
// footprints as dataset ApiIds, ready for the canonical merge.
struct PackageFootprint {
  Status status;
  PackageApis apis;
  size_t executables = 0;
  std::vector<analysis::BinaryAuditResult> audits;  // executable order
};

// Synthesizes and analyzes every ELF binary of one package and classifies
// its scripts by shebang. Pure: touches only the (const) synthesizer and
// its own shard — safe on any worker.
PackageAnalysis AnalyzePackage(const DistroSynthesizer& synthesizer,
                               const DistroSpec& spec,
                               const StudyOptions& options,
                               const CacheContext& ctx, size_t pkg) {
  PackageAnalysis out;
  const PackagePlan& plan = spec.packages[pkg];
  if (plan.script_count > 0) {
    auto scripts = synthesizer.PackageScripts(pkg);
    if (!scripts.ok()) {
      out.status = scripts.status();
      return out;
    }
    for (const auto& script : scripts.value()) {
      auto info = analysis::ClassifyScript(script.contents);
      if (info.ok()) {
        ++out.script_kinds[info.value().kind];
      }
    }
  }
  if (plan.data_only || !plan.interpreter_package.empty()) {
    return out;  // scripts and data ship no ELF binaries
  }
  auto binaries = synthesizer.PackageBinaries(pkg);
  if (!binaries.ok()) {
    out.status = binaries.status();
    return out;
  }
  for (auto& binary : binaries.value()) {
    AnalyzedBinary analyzed;
    analyzed.name = std::move(binary.name);
    analyzed.is_library = binary.is_library;
    analyzed.is_static = binary.is_static;
    Status status =
        AnalyzeInto(binary.bytes, options.analyzer, ctx,
                    options.audit && binary.is_library, analyzed);
    if (!status.ok()) {
      out.status = status;
      return out;
    }
    out.binaries.push_back(std::move(analyzed));
  }
  return out;
}

// Folds one analyzed binary's counters into the study result — called in
// canonical (package, binary) order only, never from a worker.
void FoldBinaryCounters(const AnalyzedBinary& binary, StudyResult& result) {
  const BinaryAnalysis& analysis = *binary.analysis;
  ++result.analyzed_binaries;
  result.total_syscall_sites += analysis.total_syscall_sites;
  result.unknown_syscall_sites += analysis.unknown_syscall_sites;

  // Site attribution: which binary's own code issues which syscall.
  for (const auto& fn : analysis.functions()) {
    for (int nr : fn.local.syscalls) {
      result.syscall_site_binaries[nr].insert(binary.name);
    }
    result.int80_sites += fn.local.int80_sites;
    result.int80_numbers.insert(fn.local.int80_syscalls.begin(),
                                fn.local.int80_syscalls.end());
  }
}

}  // namespace

StudyOptions SmallStudyOptions() {
  StudyOptions options;
  options.distro.app_package_count = 400;
  options.distro.script_package_count = 60;
  options.distro.data_package_count = 12;
  options.distro.installation_count = 20000;
  return options;
}

Result<StudyResult> RunStudy(const StudyOptions& options) {
  runtime::Executor pool(options.jobs);
  runtime::Executor* executor = &pool;

  // ---- Incremental cache (optional) ----
  std::unique_ptr<FootprintCache> cache;
  if (!options.cache_dir.empty()) {
    LAPIS_ASSIGN_OR_RETURN(cache, FootprintCache::Open(options.cache_dir));
  }
  CacheContext ctx;
  ctx.cache = cache.get();
  if (ctx) {
    ctx.analysis_fp = cache::ConfigFingerprint(options.analyzer,
                                               cache::EntryKind::kAnalysis);
  }

  StudyResult result;
  result.jobs_used = executor->thread_count();
  result.analyzer_options = options.analyzer;
  result.cache_enabled = static_cast<bool>(ctx);
  runtime::PipelineStats& stats = result.pipeline_stats;

  {
    runtime::StageTimer timer(&stats, "plan");
    LAPIS_ASSIGN_OR_RETURN(result.spec, BuildDistroSpec(options.distro));
    timer.AddItems(result.spec.packages.size());
  }
  DistroSynthesizer synthesizer(result.spec);
  LAPIS_ASSIGN_OR_RETURN(result.repository, synthesizer.BuildRepository());

  // Intern the full universes upfront so unused entries exist with
  // zero importance (Fig 7's unused tail; Table 7 profiles).
  for (const auto& spec : LibcUniverse()) {
    result.libc_interner.Intern(spec.name);
  }
  for (const auto& file : PseudoFiles()) {
    result.path_interner.Intern(file.path);
  }

  LibraryResolver resolver;
  analysis::FootprintAuditor auditor;
  // Called in canonical order only. The resolver keeps just the per-export
  // reachability, so the library's analysis is freed here.
  auto register_library = [&](AnalyzedBinary& library) -> Status {
    LAPIS_RETURN_IF_ERROR(resolver.AddLibrary(library.analysis));
    if (options.audit) {
      LAPIS_RETURN_IF_ERROR(auditor.AddLibrary(std::move(library.image)));
    }
    result.binary_stats.elf_shared_libraries += 1;
    library.analysis.reset();
    return Status::Ok();
  };

  // ---- Stage 1: synthesize + analyze on worker shards. The core
  // libraries are queued first, so libc's analysis starts at once and the
  // packages overlap it; under audit each keeps its image for the tracer.
  // The packages keep a ParallelMap of their own, chunked as if the core
  // libraries were not there: which within-run duplicates share a chunk,
  // and so hit the cache in a cold run, does not move. ----
  const size_t package_count = result.spec.packages.size();
  std::vector<PackageAnalysis> core;
  std::vector<PackageAnalysis> analyzed;
  {
    runtime::StageTimer timer(&stats, "synthesize+analyze");
    LAPIS_ASSIGN_OR_RETURN(auto core_libs, synthesizer.CoreLibraries());
    core.resize(core_libs.size());
    for (size_t i = 0; i < core_libs.size(); ++i) {
      executor->Submit([&core, &core_libs, &options, &ctx, i] {
        AnalyzedBinary& library = core[i].binaries.emplace_back();
        library.name = core_libs[i].name;
        library.is_library = true;
        core[i].status = AnalyzeInto(core_libs[i].bytes, options.analyzer,
                                     ctx, options.audit, library);
      });
    }
    analyzed = runtime::ParallelMap(
        executor, package_count,
        [&synthesizer, &result, &options, &ctx](size_t pkg) {
          return AnalyzePackage(synthesizer, result.spec, options, ctx, pkg);
        });
    executor->WaitAll();
    timer.AddItems(core_libs.size());
    for (const auto& shard : analyzed) {
      timer.AddItems(shard.binaries.size());
    }
  }

  // ---- Stage 2: deterministic merge — counters + library registration
  // in canonical order: the core libraries, then every package ----
  {
    runtime::StageTimer timer(&stats, "register");
    for (size_t i = 0; i < core.size() + package_count; ++i) {
      const bool is_core = i < core.size();
      PackageAnalysis& shard = is_core ? core[i] : analyzed[i - core.size()];
      LAPIS_RETURN_IF_ERROR(shard.status);
      for (const auto& [kind, count] : shard.script_kinds) {
        result.binary_stats.script_programs[kind] += count;
      }
      for (auto& binary : shard.binaries) {
        FoldBinaryCounters(binary, result);
        if (binary.from_cache) {
          ++result.analyses_from_cache;
        }
        if (is_core && binary.name == kLibcSoname) {
          // Record measured per-symbol sizes for the §3.5 analysis.
          for (const auto& fn : binary.analysis->functions()) {
            uint32_t id = result.libc_interner.Find(fn.name);
            if (id != UINT32_MAX) {
              result.libc_symbol_sizes[id] = fn.size;
            }
          }
        }
        if (binary.is_library) {
          LAPIS_RETURN_IF_ERROR(register_library(binary));
        } else if (binary.is_static) {
          result.binary_stats.elf_static += 1;
        } else {
          result.binary_stats.elf_executables += 1;
        }
      }
    }
    timer.AddItems(package_count);
  }
  core.clear();

  // ---- Stage 3: take each executable from resolution to
  // dataset ApiIds (and, under audit, through a replay against that very
  // footprint) on worker shards. The resolver, tracer and interners are
  // read-only now, so any shard may use them; each shard frees its own
  // executables' analyses. ----
  std::vector<std::vector<core::ApiId>> footprints(package_count);
  std::vector<std::vector<int>> recovered_syscalls(package_count);
  {
    runtime::StageTimer timer(&stats, "resolve");
    const ApiIdMap api_ids(resolver, kLibcSoname, result.path_interner,
                           result.libc_interner);
    auto shards = runtime::ParallelMap(
        executor, package_count,
        [&analyzed, &resolver, &api_ids, &auditor, &synthesizer,
         &options](size_t pkg) {
          PackageFootprint out;
          std::vector<AnalyzedBinary>& binaries = analyzed[pkg].binaries;
          // The analysis stage dropped the bytes; replay needs them again.
          std::vector<SynthesizedBinary> synthesized;
          if (options.audit && !binaries.empty()) {
            auto resynthesized = synthesizer.PackageBinaries(pkg);
            if (!resynthesized.ok()) {
              out.status = resynthesized.status();
              return out;
            }
            synthesized = resynthesized.take();
          }
          for (size_t i = 0; i < binaries.size(); ++i) {
            AnalyzedBinary& binary = binaries[i];
            if (binary.is_library) {
              continue;
            }
            const LibraryResolver::ResolvedIds ids =
                resolver.ResolveIds(*binary.analysis);
            binary.analysis.reset();
            ++out.executables;
            api_ids.Add(ids, out.apis);
            if (!options.audit) {
              continue;
            }
            auto image = elf::ElfReader::Parse(synthesized[i].bytes);
            if (!image.ok()) {
              out.status = image.status();
              return out;
            }
            auto audited = auditor.AuditExecutable(
                image.value(), binary.name, resolver.Render(ids).footprint);
            if (!audited.ok()) {
              out.status = audited.status();
              return out;
            }
            out.audits.push_back(audited.take());
          }
          out.apis.Finish();
          return out;
        });
    // Canonical-order merge: paths outside the universe are interned in
    // (package, executable, path) order, and audit results fold in the same
    // order, so both are identical at every worker count.
    analysis::AuditReport report;
    std::vector<size_t> path_packages;
    for (size_t pkg = 0; pkg < package_count; ++pkg) {
      PackageFootprint& shard = shards[pkg];
      LAPIS_RETURN_IF_ERROR(shard.status);
      MergeNewPaths(shard.apis, result.path_interner);
      path_packages.resize(result.path_interner.size());
      for (const core::ApiId& api : shard.apis.footprint) {
        if (api.kind == core::ApiKind::kPseudoFile) {
          ++path_packages[api.code];
        }
      }
      footprints[pkg] = std::move(shard.apis.footprint);
      recovered_syscalls[pkg] = std::move(shard.apis.recovered_syscalls);
      for (auto& audited : shard.audits) {
        report.Fold(std::move(audited));
      }
      timer.AddItems(shard.executables);
    }
    for (uint32_t path = 0; path < path_packages.size(); ++path) {
      if (path_packages[path] != 0) {
        result.pseudo_path_binary_counts.emplace(
            result.path_interner.NameOf(path), path_packages[path]);
      }
    }
    if (options.audit) {
      result.audit = std::move(report);
    }
  }
  analyzed.clear();

  // Script packages inherit the interpreter's footprint (§2.3
  // over-approximation); data packages stay empty.
  for (size_t pkg = 0; pkg < package_count; ++pkg) {
    const PackagePlan& plan = result.spec.packages[pkg];
    if (plan.interpreter_package.empty()) {
      continue;
    }
    auto it = result.spec.by_name.find(plan.interpreter_package);
    if (it != result.spec.by_name.end()) {
      footprints[pkg] = footprints[it->second];
      recovered_syscalls[pkg] = recovered_syscalls[it->second];
    }
  }

  // ---- Ground-truth verification ----
  {
    runtime::StageTimer timer(&stats, "ground-truth");
    auto mismatches = runtime::ParallelMap(
        executor, package_count,
        [&result, &recovered_syscalls](size_t pkg) -> uint8_t {
          return std::ranges::equal(result.spec.ExpectedSyscalls(pkg),
                                    recovered_syscalls[pkg])
                     ? 0
                     : 1;
        });
    for (uint8_t mismatch : mismatches) {
      result.ground_truth_mismatches += mismatch;
    }
    timer.AddItems(package_count);
  }

  // ---- Popularity-contest survey ----
  {
    runtime::StageTimer timer(&stats, "popcon");
    std::vector<double> marginals;
    marginals.reserve(package_count);
    for (const auto& plan : result.spec.packages) {
      marginals.push_back(plan.target_marginal);
    }
    package::PopconOptions popcon;
    popcon.installation_count = options.distro.installation_count;
    popcon.report_rate = options.distro.popcon_report_rate;
    popcon.retain_samples = options.popcon_retain_samples;
    popcon.profile_count = options.popcon_profile_count;
    popcon.seed = options.distro.seed ^ 0x9e3779b97f4a7c15ULL;
    // The survey is a pure function of (repository, marginals, options):
    // cacheable by input hash. Its fingerprint deliberately excludes the
    // analyzer switches — flipping use_dataflow must not invalidate it.
    cache::CacheKey survey_key;
    bool survey_restored = false;
    if (ctx) {
      survey_key.content =
          cache::HashSurveyInputs(result.repository, marginals, popcon);
      survey_key.fingerprint =
          cache::BaseFingerprint(cache::EntryKind::kSurvey);
      auto payload = ctx.cache->Lookup(survey_key);
      if (payload.has_value()) {
        ByteReader reader(*payload);
        auto decoded =
            cache::SurveyCodec::Decode(reader, result.repository.size());
        if (decoded.ok()) {
          result.survey = decoded.take();
          survey_restored = true;
        }
        // An undecodable survey, or one that does not fit the repository:
        // treat as a miss and recompute.
      }
    }
    if (!survey_restored) {
      LAPIS_ASSIGN_OR_RETURN(result.survey,
                             package::PopconSimulator::Run(
                                 result.repository, marginals, popcon,
                                 executor));
      if (ctx) {
        ByteWriter writer;
        cache::SurveyCodec::Encode(result.survey, writer);
        ctx.cache->Insert(survey_key, writer.bytes());
      }
    }
    timer.AddItems(options.distro.installation_count);
  }

  // ---- Dataset assembly ----
  {
    runtime::StageTimer timer(&stats, "dataset");
    result.dataset = std::make_unique<core::StudyDataset>(
        package_count, result.survey.total_reporting);
    std::vector<std::vector<package::PackageId>> edges =
        result.repository.DependencyEdges();
    for (size_t pkg = 0; pkg < package_count; ++pkg) {
      const PackagePlan& plan = result.spec.packages[pkg];
      LAPIS_RETURN_IF_ERROR(
          result.dataset->SetPackageName(static_cast<uint32_t>(pkg),
                                         plan.name));
      LAPIS_RETURN_IF_ERROR(result.dataset->SetInstallCount(
          static_cast<uint32_t>(pkg), result.survey.install_counts[pkg]));
      LAPIS_RETURN_IF_ERROR(result.dataset->SetFootprint(
          static_cast<uint32_t>(pkg), std::move(footprints[pkg])));
      LAPIS_RETURN_IF_ERROR(result.dataset->SetDependencies(
          static_cast<uint32_t>(pkg), std::move(edges[pkg])));
    }
    LAPIS_RETURN_IF_ERROR(result.dataset->Finalize());
    timer.AddItems(package_count);
  }

  // ---- Audit evidence ----
  // Lift the audit's merged observed footprint to ApiIds now that the path
  // interner is final. Paths the replay touched but no static footprint
  // claims (impossible while the auditor is sound) have no interned id and
  // are dropped — they cannot appear in any package's footprint anyway.
  if (result.audit.has_value()) {
    const analysis::Footprint& seen = result.audit->observed_union;
    result.evidence_kinds_mask = static_cast<uint8_t>(
        (1u << static_cast<uint8_t>(core::ApiKind::kSyscall)) |
        (1u << static_cast<uint8_t>(core::ApiKind::kIoctlOp)) |
        (1u << static_cast<uint8_t>(core::ApiKind::kFcntlOp)) |
        (1u << static_cast<uint8_t>(core::ApiKind::kPrctlOp)) |
        (1u << static_cast<uint8_t>(core::ApiKind::kPseudoFile)));
    for (int nr : seen.syscalls) {
      result.evidence_observed.insert(
          core::SyscallApi(static_cast<uint32_t>(nr)));
    }
    for (uint32_t op : seen.ioctl_ops) {
      result.evidence_observed.insert(core::IoctlApi(op));
    }
    for (uint32_t op : seen.fcntl_ops) {
      result.evidence_observed.insert(core::FcntlApi(op));
    }
    for (uint32_t op : seen.prctl_ops) {
      result.evidence_observed.insert(core::PrctlApi(op));
    }
    for (const std::string& path : seen.pseudo_paths) {
      uint32_t id = result.path_interner.Find(path);
      if (id != UINT32_MAX) {
        result.evidence_observed.insert(
            core::ApiId{core::ApiKind::kPseudoFile, id});
      }
    }
  }

  result.executor_stats = executor->stats();
  if (ctx) {
    result.cache_stats = ctx.cache->stats();
  }
  return result;
}

}  // namespace lapis::corpus
