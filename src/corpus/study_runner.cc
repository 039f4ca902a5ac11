#include "src/corpus/study_runner.h"

#include <algorithm>
#include <memory>
#include <span>
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

// One synthesized binary's analysis. Under audit its parsed image is kept
// too, for the tracer: it follows calls into a library's image and replays
// an executable's, so no binary is parsed twice.
struct AnalyzedBinary {
  std::string name;
  bool from_cache = false;
  std::shared_ptr<const BinaryAnalysis> analysis;
  std::shared_ptr<const elf::ElfImage> image;  // under audit only
};

// Per-run cache context threaded through the pipeline stages. `cache` may be
// null (cache disabled); the fingerprint is computed once per run.
struct CacheContext {
  FootprintCache* cache = nullptr;
  uint64_t analysis_fp = 0;

  explicit operator bool() const { return cache != nullptr; }
};

// Analyzes one synthesized binary into `out`, going through the cache when
// enabled: on a hit the serialized BinaryAnalysis is decoded (no
// parse/sweep/CFG/dataflow); on a miss (or an undecodable payload) the
// analysis runs and is written back. Under audit the parsed image is kept
// too, parsing even on a hit. Safe on any worker shard.
Status AnalyzeInto(const SynthesizedBinary& binary,
                   const StudyOptions& options, const CacheContext& ctx,
                   AnalyzedBinary& out) {
  out.name = binary.name;
  cache::CacheKey key;
  if (ctx) {
    key = {cache::HashBytes(binary.bytes), ctx.analysis_fp};
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
  if (out.analysis != nullptr && !options.audit) {
    return Status::Ok();
  }
  LAPIS_ASSIGN_OR_RETURN(auto image, elf::ElfReader::Parse(binary.bytes));
  if (out.analysis == nullptr) {
    LAPIS_ASSIGN_OR_RETURN(auto analysis,
                           BinaryAnalyzer::Analyze(image, options.analyzer));
    out.analysis = std::make_shared<BinaryAnalysis>(std::move(analysis));
    if (ctx) {
      ByteWriter writer;
      AnalysisCodec::Encode(*out.analysis, writer);
      ctx.cache->Insert(key, writer.bytes());
    }
  }
  if (options.audit) {
    out.image = std::make_shared<const elf::ElfImage>(std::move(image));
  }
  return Status::Ok();
}

// What the study result counts of binaries and scripts, summed on a worker
// shard and folded into the result in canonical order.
struct ShardCounters {
  BinaryStats kinds;
  size_t from_cache = 0;
  int total_syscall_sites = 0;
  int unknown_syscall_sites = 0;
  int int80_sites = 0;
  std::set<int> int80_numbers;
  std::map<int, std::set<std::string>> syscall_site_binaries;

  void Add(const SynthesizedBinary& binary, const AnalyzedBinary& analyzed) {
    ++(binary.is_library  ? kinds.elf_shared_libraries
       : binary.is_static ? kinds.elf_static
                          : kinds.elf_executables);
    from_cache += analyzed.from_cache ? 1 : 0;
    total_syscall_sites += analyzed.analysis->total_syscall_sites;
    unknown_syscall_sites += analyzed.analysis->unknown_syscall_sites;
    // Site attribution: which binary's own code issues which syscall.
    for (const auto& fn : analyzed.analysis->functions()) {
      for (int nr : fn.local.syscalls) {
        syscall_site_binaries[nr].insert(binary.name);
      }
      int80_sites += fn.local.int80_sites;
      int80_numbers.insert(fn.local.int80_syscalls.begin(),
                           fn.local.int80_syscalls.end());
    }
  }

  void FoldInto(StudyResult& result) {
    result.binary_stats.elf_executables += kinds.elf_executables;
    result.binary_stats.elf_shared_libraries += kinds.elf_shared_libraries;
    result.binary_stats.elf_static += kinds.elf_static;
    for (const auto& [kind, count] : kinds.script_programs) {
      result.binary_stats.script_programs[kind] += count;
    }
    result.analyzed_binaries += kinds.TotalElf();
    result.analyses_from_cache += from_cache;
    result.total_syscall_sites += total_syscall_sites;
    result.unknown_syscall_sites += unknown_syscall_sites;
    result.int80_sites += int80_sites;
    result.int80_numbers.merge(int80_numbers);
    for (auto& [nr, names] : syscall_site_binaries) {
      result.syscall_site_binaries[nr].merge(names);
    }
  }
};

// A libraries-phase shard: one core library, or one package's shared
// libraries and scripts.
struct LibraryShard {
  Status status;  // first synthesis/parse/analysis error, if any
  std::vector<AnalyzedBinary> libraries;
  ShardCounters counters;
};

// Analyzes and counts `libraries` into `out`. Safe on any worker shard.
void AnalyzeLibraries(std::span<const SynthesizedBinary> libraries,
                      const StudyOptions& options, const CacheContext& ctx,
                      LibraryShard& out) {
  for (const SynthesizedBinary& library : libraries) {
    AnalyzedBinary& analyzed = out.libraries.emplace_back();
    out.status = AnalyzeInto(library, options, ctx, analyzed);
    if (!out.status.ok()) {
      return;
    }
    out.counters.Add(library, analyzed);
  }
}

// Synthesizes and analyzes one package's shared libraries and classifies
// its scripts by shebang (Fig 1), not by trusting the plan. Pure: touches
// only the (const) synthesizer and its own shard — safe on any worker.
LibraryShard AnalyzePackageLibraries(const DistroSynthesizer& synthesizer,
                                     const StudyOptions& options,
                                     const CacheContext& ctx, size_t pkg) {
  LibraryShard out;
  auto scripts = synthesizer.PackageScripts(pkg);
  auto libraries = synthesizer.PackageLibraries(pkg);
  if (!scripts.ok() || !libraries.ok()) {
    out.status = scripts.ok() ? libraries.status() : scripts.status();
    return out;
  }
  for (const auto& script : scripts.value()) {
    auto info = analysis::ClassifyScript(script.contents);
    if (info.ok()) {
      ++out.counters.kinds.script_programs[info.value().kind];
    }
  }
  AnalyzeLibraries(libraries.value(), options, ctx, out);
  return out;
}

// An executables-phase shard: one package's executables as dataset ApiIds,
// their counters and audits, ready for the canonical merge.
struct PackageFootprint {
  Status status;
  PackageApis apis;
  ShardCounters counters;
  std::vector<analysis::BinaryAuditResult> audits;  // executable order
  bool matches_ground_truth = false;
};

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

  // ---- Incremental cache (optional), closed after its last reader ----
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
  const size_t package_count = result.spec.packages.size();

  // ---- Popularity-contest survey. It reads only the repository, the
  // plan's marginals and the options, so it runs before the analyses, and
  // the cache can close when they end. ----
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

  // Intern the full universes upfront so unused entries exist with
  // zero importance (Fig 7's unused tail; Table 7 profiles).
  for (const auto& spec : LibcUniverse()) {
    result.libc_interner.Intern(spec.name);
  }
  for (const auto& file : PseudoFiles()) {
    result.path_interner.Intern(file.path);
  }

  std::vector<std::vector<core::ApiId>> footprints(package_count);
  {
    LibraryResolver resolver;
    analysis::FootprintAuditor auditor;

    // ---- Libraries phase: synthesize + analyze the core libraries, then
    // every package's shared libraries and scripts, on worker shards ----
    std::vector<LibraryShard> libraries;
    {
      runtime::StageTimer timer(&stats, "synthesize+analyze");
      LAPIS_ASSIGN_OR_RETURN(auto core_libs, synthesizer.CoreLibraries());
      libraries = runtime::ParallelMap(
          executor, core_libs.size() + package_count,
          [&core_libs, &synthesizer, &options, &ctx](size_t i) {
            if (i >= core_libs.size()) {
              return AnalyzePackageLibraries(synthesizer, options, ctx,
                                             i - core_libs.size());
            }
            LibraryShard out;
            AnalyzeLibraries(std::span(&core_libs[i], 1), options, ctx, out);
            return out;
          });
      for (const LibraryShard& shard : libraries) {
        timer.AddItems(shard.libraries.size());
      }
    }

    // ---- Deterministic merge in canonical order, the core libraries
    // first: counters, then each library's registration. The resolver
    // keeps just the per-export reachability, so each analysis is freed
    // here. ----
    {
      runtime::StageTimer timer(&stats, "register");
      for (LibraryShard& shard : libraries) {
        LAPIS_RETURN_IF_ERROR(shard.status);
        shard.counters.FoldInto(result);
        for (AnalyzedBinary& library : shard.libraries) {
          if (library.name == kLibcSoname) {
            // Record measured per-symbol sizes for the §3.5 analysis.
            for (const auto& fn : library.analysis->functions()) {
              uint32_t id = result.libc_interner.Find(fn.name);
              if (id != UINT32_MAX) {
                result.libc_symbol_sizes[id] = fn.size;
              }
            }
          }
          LAPIS_RETURN_IF_ERROR(
              resolver.AddLibrary(std::move(library.analysis)));
          if (options.audit) {
            LAPIS_RETURN_IF_ERROR(auditor.AddLibrary(std::move(library.image)));
          }
        }
      }
      timer.AddItems(package_count);
    }
    libraries.clear();

    // ---- Executables phase: each package shard synthesizes its
    // executables and takes them one at a time through analysis,
    // resolution, the join to dataset ApiIds and, under audit, a replay
    // against that very footprint, dropping each analysis before the next.
    // The resolver, tracer and interners are read-only now, so any shard
    // may use them. ----
    runtime::StageTimer timer(&stats, "resolve");
    const ApiIdMap api_ids(resolver, kLibcSoname, result.path_interner,
                           result.libc_interner);
    auto shards = runtime::ParallelMap(
        executor, package_count,
        [&synthesizer, &result, &options, &ctx, &resolver, &api_ids,
         &auditor](size_t pkg) {
          PackageFootprint out;
          auto executables = synthesizer.PackageExecutables(pkg);
          if (!executables.ok()) {
            out.status = executables.status();
            return out;
          }
          for (const SynthesizedBinary& executable : executables.value()) {
            AnalyzedBinary binary;
            out.status = AnalyzeInto(executable, options, ctx, binary);
            if (!out.status.ok()) {
              return out;
            }
            out.counters.Add(executable, binary);
            const LibraryResolver::ResolvedIds ids =
                resolver.ResolveIds(*binary.analysis);
            api_ids.Add(ids, out.apis);
            if (options.audit) {
              auto audited = auditor.AuditExecutable(
                  *binary.image, executable.name,
                  resolver.Render(ids).footprint);
              if (!audited.ok()) {
                out.status = audited.status();
                return out;
              }
              out.audits.push_back(audited.take());
            }
          }
          out.apis.Finish();
          // The ground-truth check is the recovered syscalls' last reader.
          out.matches_ground_truth = std::ranges::equal(
              result.spec.ExpectedSyscalls(pkg), out.apis.recovered_syscalls);
          std::vector<int>().swap(out.apis.recovered_syscalls);
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
      shard.counters.FoldInto(result);
      MergeNewPaths(shard.apis, result.path_interner);
      path_packages.resize(result.path_interner.size());
      for (const core::ApiId& api : shard.apis.footprint) {
        if (api.kind == core::ApiKind::kPseudoFile) {
          ++path_packages[api.code];
        }
      }
      footprints[pkg] = std::move(shard.apis.footprint);
      for (auto& audited : shard.audits) {
        report.Fold(std::move(audited));
      }
      timer.AddItems(shard.counters.kinds.TotalElf());
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
    // Script packages inherit the interpreter's footprint (§2.3
    // over-approximation) and its ground-truth verdict; data packages stay
    // empty.
    for (size_t pkg = 0; pkg < package_count; ++pkg) {
      const std::string& interpreter =
          result.spec.packages[pkg].interpreter_package;
      auto it = result.spec.by_name.find(interpreter);
      if (!interpreter.empty() && it != result.spec.by_name.end()) {
        footprints[pkg] = footprints[it->second];
        shards[pkg].matches_ground_truth =
            shards[it->second].matches_ground_truth;
      }
      result.ground_truth_mismatches +=
          shards[pkg].matches_ground_truth ? 0 : 1;
    }
  }
  // The executables phase made the last lookup and the last append.
  if (ctx) {
    result.cache_stats = cache->stats();
    cache.reset();
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
  return result;
}

}  // namespace lapis::corpus
