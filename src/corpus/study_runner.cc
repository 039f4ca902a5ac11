#include "src/corpus/study_runner.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "src/analysis/binary_analyzer.h"
#include "src/analysis/library_resolver.h"
#include "src/analysis/script_scanner.h"
#include "src/cache/analysis_codec.h"
#include "src/cache/content_hash.h"
#include "src/cache/survey_codec.h"
#include "src/corpus/api_universe.h"
#include "src/corpus/syscall_table.h"
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
// (everything downstream needs), the content hash (the cache key for
// derived entries) and, for a library under audit, the parsed image the
// tracer follows calls into survive.
struct AnalyzedBinary {
  std::string name;
  bool is_library = false;
  bool is_static = false;
  // FNV-1a of the raw ELF bytes; 0 when no cache is configured.
  uint64_t content_hash = 0;
  bool from_cache = false;
  std::shared_ptr<const BinaryAnalysis> analysis;
  std::shared_ptr<const elf::ElfImage> image;  // audited libraries only
};

// Per-run cache context threaded through the pipeline stages. `cache` may be
// null (cache disabled); the fingerprints are computed once per run.
struct CacheContext {
  FootprintCache* cache = nullptr;
  uint64_t analysis_fp = 0;
  uint64_t libreach_fp = 0;
  uint64_t resolution_fp = 0;

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
  if (ctx) {
    out.content_hash = cache::HashBytes(bytes);
    auto payload = ctx.cache->Lookup({out.content_hash, ctx.analysis_fp});
    if (payload != nullptr) {
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
      ctx.cache->Insert({out.content_hash, ctx.analysis_fp}, writer.bytes());
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
  std::vector<core::ApiId> footprint;  // sorted, unique
  // Pseudo paths outside the interned universe, in first-seen (executable,
  // path) order; the merge interns them so ids match a serial run.
  std::vector<std::string> new_paths;
  std::set<int> recovered_syscalls;
  std::set<std::string> pseudo_paths;  // distinct over the package
  size_t executables = 0;
  size_t from_cache = 0;
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

// Registers one analyzed library with the resolver, restoring its memoized
// per-export reachability from the cache when possible and writing it back
// after a recompute. Called in canonical registration order only.
Status RegisterLibrary(const AnalyzedBinary& binary, const CacheContext& ctx,
                       LibraryResolver& resolver) {
  if (ctx && binary.content_hash != 0) {
    auto payload = ctx.cache->Lookup({binary.content_hash, ctx.libreach_fp});
    if (payload != nullptr) {
      ByteReader reader(*payload);
      auto reach = AnalysisCodec::DecodeExportReach(reader);
      if (reach.ok()) {
        return resolver.AddLibrary(binary.analysis, reach.take());
      }
      // Undecodable payload: recompute below.
    }
  }
  LAPIS_RETURN_IF_ERROR(resolver.AddLibrary(binary.analysis));
  if (ctx && binary.content_hash != 0) {
    const auto* reach = resolver.ExportReachOf(binary.analysis->soname());
    if (reach != nullptr) {
      ByteWriter writer;
      AnalysisCodec::EncodeExportReach(*reach, writer);
      ctx.cache->Insert({binary.content_hash, ctx.libreach_fp},
                        writer.bytes());
    }
  }
  return Status::Ok();
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

// The full footprint of one executable: decoded from the cache when the
// same binary was resolved against the same library set (`link_fp`), else
// resolved and written back. Safe on any worker shard.
LibraryResolver::Resolution ResolveOrDecode(const AnalyzedBinary& binary,
                                            const LibraryResolver& resolver,
                                            const CacheContext& ctx,
                                            uint64_t link_fp,
                                            bool* from_cache) {
  *from_cache = false;
  if (ctx && binary.content_hash != 0) {
    auto payload = ctx.cache->Lookup({binary.content_hash, link_fp});
    if (payload != nullptr) {
      ByteReader reader(*payload);
      auto decoded = AnalysisCodec::DecodeResolution(reader);
      if (decoded.ok()) {
        *from_cache = true;
        return decoded.take();
      }
    }
  }
  LibraryResolver::Resolution resolution =
      resolver.ResolveExecutable(*binary.analysis);
  if (ctx && binary.content_hash != 0) {
    ByteWriter writer;
    AnalysisCodec::EncodeResolution(resolution, writer);
    ctx.cache->Insert({binary.content_hash, link_fp}, writer.bytes());
  }
  return resolution;
}

// Adds one executable's resolved footprint and used libc exports to its
// package's shard as dataset ApiIds. The interners hold the full universes
// and are only read, so this is safe on any worker shard.
void AddFootprint(const LibraryResolver::Resolution& res,
                  const core::StringInterner& path_interner,
                  const core::StringInterner& libc_interner,
                  PackageFootprint& out) {
  for (int nr : res.footprint.syscalls) {
    if (nr >= 0 && nr < kSyscallCount) {
      out.footprint.push_back(core::SyscallApi(static_cast<uint32_t>(nr)));
    }
  }
  out.recovered_syscalls.insert(res.footprint.syscalls.begin(),
                                res.footprint.syscalls.end());
  for (uint32_t op : res.footprint.ioctl_ops) {
    out.footprint.push_back(core::IoctlApi(op));
  }
  for (uint32_t op : res.footprint.fcntl_ops) {
    out.footprint.push_back(core::FcntlApi(op));
  }
  for (uint32_t op : res.footprint.prctl_ops) {
    out.footprint.push_back(core::PrctlApi(op));
  }
  for (const auto& path : res.footprint.pseudo_paths) {
    const bool first_in_package = out.pseudo_paths.insert(path).second;
    uint32_t id = path_interner.Find(path);
    if (id != UINT32_MAX) {
      out.footprint.push_back(core::ApiId{core::ApiKind::kPseudoFile, id});
    } else if (first_in_package) {
      out.new_paths.push_back(path);
    }
  }
  auto libc_exports = res.used_exports.find(kLibcSoname);
  if (libc_exports != res.used_exports.end()) {
    // The libc-symbol API surface (§5, Table 7) is the 1274-entry universe
    // the interner holds. libc also exports the non-universe `syscall` clone
    // that tail-plt wrappers jump through; it carries no importance row and
    // no variant lists it, so it must not enter the dataset.
    for (const auto& symbol : libc_exports->second) {
      uint32_t id = libc_interner.Find(symbol);
      if (id != UINT32_MAX) {
        out.footprint.push_back(core::ApiId{core::ApiKind::kLibcFn, id});
      }
    }
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
  std::unique_ptr<FootprintCache> owned_cache;
  FootprintCache* cache_ptr = options.cache;
  if (cache_ptr == nullptr && !options.cache_dir.empty()) {
    LAPIS_ASSIGN_OR_RETURN(owned_cache,
                           FootprintCache::Open(options.cache_dir));
    cache_ptr = owned_cache.get();
  }
  CacheContext ctx;
  ctx.cache = cache_ptr;
  if (ctx) {
    ctx.analysis_fp = cache::ConfigFingerprint(options.analyzer,
                                               cache::EntryKind::kAnalysis);
    ctx.libreach_fp = cache::ConfigFingerprint(options.analyzer,
                                               cache::EntryKind::kLibReach);
    ctx.resolution_fp = cache::ConfigFingerprint(
        options.analyzer, cache::EntryKind::kResolution);
  }
  const cache::CacheStats cache_start =
      ctx ? ctx.cache->stats() : cache::CacheStats{};

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

  // ---- Core libraries: analyze shards in parallel, register in order ----
  // The link fingerprint folds every registered library's content hash in
  // registration order; it keys per-executable resolutions, which are only
  // valid against an identical library set. Under audit the tracer gets
  // each library's image in the same order.
  LibraryResolver resolver(executor);
  analysis::FootprintAuditor auditor;
  uint64_t link_fp = ctx.resolution_fp;
  // Called in canonical order only. The resolver keeps just the per-export
  // reachability, so the library's analysis is freed here.
  auto register_library = [&](AnalyzedBinary& library) -> Status {
    LAPIS_RETURN_IF_ERROR(RegisterLibrary(library, ctx, resolver));
    if (options.audit) {
      LAPIS_RETURN_IF_ERROR(auditor.AddLibrary(std::move(library.image)));
    }
    link_fp = cache::HashU64(library.content_hash, link_fp);
    result.binary_stats.elf_shared_libraries += 1;
    library.analysis.reset();
    return Status::Ok();
  };
  {
    runtime::StageTimer timer(&stats, "core-libs");
    LAPIS_ASSIGN_OR_RETURN(auto core_libs, synthesizer.CoreLibraries());
    struct CoreShard {
      Status status;
      AnalyzedBinary binary;
    };
    auto shards = runtime::ParallelMap(
        executor, core_libs.size(), [&core_libs, &options, &ctx](size_t i) {
          CoreShard shard;
          shard.binary.name = core_libs[i].name;
          shard.binary.is_library = true;
          shard.status = AnalyzeInto(core_libs[i].bytes, options.analyzer,
                                     ctx, options.audit, shard.binary);
          return shard;
        });
    for (auto& shard : shards) {
      LAPIS_RETURN_IF_ERROR(shard.status);
      AnalyzedBinary& library = shard.binary;
      FoldBinaryCounters(library, result);
      if (library.from_cache) {
        ++result.analyses_from_cache;
      }
      if (library.name == kLibcSoname) {
        // Record measured per-symbol sizes for the §3.5 analysis.
        for (const auto& fn : library.analysis->functions()) {
          uint32_t id = result.libc_interner.Find(fn.name);
          if (id != UINT32_MAX) {
            result.libc_symbol_sizes[id] = fn.size;
          }
        }
      }
      LAPIS_RETURN_IF_ERROR(register_library(library));
    }
    timer.AddItems(core_libs.size());
  }

  // ---- Packages, stage 1: synthesize + analyze on worker shards ----
  const size_t package_count = result.spec.packages.size();
  std::vector<PackageAnalysis> analyzed;
  {
    runtime::StageTimer timer(&stats, "synthesize+analyze");
    analyzed = runtime::ParallelMap(
        executor, package_count,
        [&synthesizer, &result, &options, &ctx](size_t pkg) {
          return AnalyzePackage(synthesizer, result.spec, options, ctx, pkg);
        });
    for (const auto& shard : analyzed) {
      timer.AddItems(shard.binaries.size());
    }
  }

  // ---- Packages, stage 2: deterministic merge — counters + library
  // registration in canonical package order ----
  {
    runtime::StageTimer timer(&stats, "register");
    for (size_t pkg = 0; pkg < package_count; ++pkg) {
      LAPIS_RETURN_IF_ERROR(analyzed[pkg].status);
      for (const auto& [kind, count] : analyzed[pkg].script_kinds) {
        result.binary_stats.script_programs[kind] += count;
      }
      for (auto& binary : analyzed[pkg].binaries) {
        FoldBinaryCounters(binary, result);
        if (binary.from_cache) {
          ++result.analyses_from_cache;
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

  // ---- Packages, stage 3: take each executable from resolution to
  // dataset ApiIds (and, under audit, through a replay against that very
  // footprint) on worker shards. The resolver, tracer and interners are
  // read-only now, so any shard may use them; each shard frees its own
  // executables' analyses. ----
  std::vector<std::vector<core::ApiId>> footprints(package_count);
  std::vector<std::set<int>> recovered_syscalls(package_count);
  {
    runtime::StageTimer timer(&stats, "resolve");
    auto shards = runtime::ParallelMap(
        executor, package_count,
        [&analyzed, &resolver, &auditor, &synthesizer, &result, &options,
         &ctx, link_fp](size_t pkg) {
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
            bool from_cache = false;
            const LibraryResolver::Resolution resolution =
                ResolveOrDecode(binary, resolver, ctx, link_fp, &from_cache);
            binary.analysis.reset();
            ++out.executables;
            out.from_cache += from_cache ? 1 : 0;
            AddFootprint(resolution, result.path_interner,
                         result.libc_interner, out);
            if (!options.audit) {
              continue;
            }
            auto image = elf::ElfReader::Parse(synthesized[i].bytes);
            if (!image.ok()) {
              out.status = image.status();
              return out;
            }
            auto audited = auditor.AuditExecutable(image.value(), binary.name,
                                                   resolution.footprint);
            if (!audited.ok()) {
              out.status = audited.status();
              return out;
            }
            out.audits.push_back(audited.take());
          }
          std::sort(out.footprint.begin(), out.footprint.end());
          out.footprint.erase(
              std::unique(out.footprint.begin(), out.footprint.end()),
              out.footprint.end());
          return out;
        });
    // Canonical-order merge: paths outside the universe are interned in
    // (package, executable, path) order, and audit results fold in the same
    // order, so both are identical at every worker count.
    analysis::AuditReport report;
    for (size_t pkg = 0; pkg < package_count; ++pkg) {
      PackageFootprint& shard = shards[pkg];
      LAPIS_RETURN_IF_ERROR(shard.status);
      for (const auto& path : shard.new_paths) {
        shard.footprint.push_back(core::ApiId{
            core::ApiKind::kPseudoFile, result.path_interner.Intern(path)});
      }
      footprints[pkg] = std::move(shard.footprint);
      recovered_syscalls[pkg] = std::move(shard.recovered_syscalls);
      for (const auto& path : shard.pseudo_paths) {
        ++result.pseudo_path_binary_counts[path];
      }
      result.resolutions_from_cache += shard.from_cache;
      for (auto& audited : shard.audits) {
        report.Fold(std::move(audited));
      }
      timer.AddItems(shard.executables);
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
          return result.spec.ExpectedSyscalls(pkg) !=
                         recovered_syscalls[pkg]
                     ? 1
                     : 0;
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
    popcon.profile_boost = options.popcon_profile_boost;
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
      if (payload != nullptr) {
        ByteReader reader(*payload);
        auto decoded = cache::SurveyCodec::Decode(reader);
        if (decoded.ok()) {
          result.survey = decoded.take();
          survey_restored = true;
        }
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
    for (size_t pkg = 0; pkg < package_count; ++pkg) {
      const PackagePlan& plan = result.spec.packages[pkg];
      LAPIS_RETURN_IF_ERROR(
          result.dataset->SetPackageName(static_cast<uint32_t>(pkg),
                                         plan.name));
      LAPIS_RETURN_IF_ERROR(result.dataset->SetInstallCount(
          static_cast<uint32_t>(pkg), result.survey.install_counts[pkg]));
      LAPIS_RETURN_IF_ERROR(result.dataset->SetFootprint(
          static_cast<uint32_t>(pkg), footprints[pkg]));
      const package::Package& pkg_meta =
          result.repository.package(static_cast<package::PackageId>(pkg));
      std::vector<core::PackageId> deps(pkg_meta.depends.begin(),
                                        pkg_meta.depends.end());
      if (pkg_meta.interpreter != package::kInvalidPackage) {
        deps.push_back(pkg_meta.interpreter);
      }
      LAPIS_RETURN_IF_ERROR(result.dataset->SetDependencies(
          static_cast<uint32_t>(pkg), std::move(deps)));
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
    result.cache_stats = ctx.cache->stats() - cache_start;
  }
  return result;
}

}  // namespace lapis::corpus
