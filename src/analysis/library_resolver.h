// Cross-binary footprint resolution (paper §7).
//
// Executables rarely make system calls directly — they call library exports
// (mostly libc) that do. LibraryResolver holds the per-export reachability
// results of every registered shared library and resolves a binary's full
// footprint by fixpoint over the imported-symbol graph:
//
//   exe entry ──reach──▶ plt calls ──▶ (lib, export) ──reach──▶ plt calls ─▶ …
//
// The result also records which exports of which library were touched; the
// libc slice of that drives the libc-importance study (§3.5) and the libc
// variant evaluation (Table 7).

#ifndef LAPIS_SRC_ANALYSIS_LIBRARY_RESOLVER_H_
#define LAPIS_SRC_ANALYSIS_LIBRARY_RESOLVER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/binary_analyzer.h"
#include "src/util/status.h"
#include "src/util/string_pool.h"

namespace lapis::analysis {

class LibraryResolver {
 public:
  // With an executor, AddLibrary fans per-export reachability out across
  // worker shards (libc registers 1,274 exports); resolution results are
  // identical either way. Registration itself stays single-threaded; the
  // const Resolve* methods are safe to call concurrently once every
  // library is registered.
  explicit LibraryResolver(runtime::Executor* executor = nullptr)
      : executor_(executor) {}

  using ExportReach = std::map<std::string, BinaryAnalysis::ReachableResult>;

  // Registers an analyzed shared library under its soname; precomputes and
  // memoizes per-export reachability. First registration of a symbol wins
  // (mirrors linker search order). Only the reachability is kept; the
  // caller may drop the analysis afterwards.
  Status AddLibrary(std::shared_ptr<const BinaryAnalysis> library);

  // Same, but with per-export reachability already computed (a warm-cache
  // hit decodes it instead of recomputing; libc alone has 1,274 exports).
  Status AddLibrary(std::shared_ptr<const BinaryAnalysis> library,
                    ExportReach export_reach);

  // The memoized per-export reachability of a registered library, for cache
  // write-back. nullptr if the soname is not registered.
  const ExportReach* ExportReachOf(const std::string& soname) const;

  struct Resolution {
    Footprint footprint;
    // Exports actually pulled in, grouped by soname. The "libc.so.6" slice
    // is each package's libc API footprint.
    std::map<std::string, std::set<std::string>> used_exports;
    // Imported symbols no registered library exports.
    std::set<std::string> unresolved_imports;
    size_t reachable_function_count = 0;
  };

  // Full footprint of an executable: entry-reachable code plus the closure
  // of everything it (transitively) imports.
  Resolution ResolveExecutable(const BinaryAnalysis& exe) const;

  // Closure starting from a set of symbol names (used for interpreter
  // packages, where the interpreter's public entry points over-approximate
  // the scripts' footprints — paper §2.3).
  Resolution ResolveFromSymbols(const std::vector<std::string>& symbols) const;

  // Closure over every export of one registered library (the library's own
  // total footprint; used for site attribution, not package footprints).
  Result<Resolution> ResolveWholeLibrary(const std::string& soname) const;

  size_t library_count() const { return libraries_.size(); }
  const std::vector<std::string>& sonames() const { return sonames_; }

  // The registered library exporting `symbol`, or empty string.
  std::string ExporterOf(const std::string& symbol) const;

 private:
  // Id-keyed view of one export's memoized reachability. `reach` points into
  // a library's ExportReach (std::map nodes are address-stable);
  // `plt_call_ids` are the interned ids of reach->plt_calls so the Expand
  // fixpoint never touches a std::string.
  struct ReachRef {
    const BinaryAnalysis::ReachableResult* reach = nullptr;
    uint32_t soname_index = 0;
    std::vector<uint32_t> plt_call_ids;
  };

  void Expand(const std::set<std::string>& initial_symbols,
              Resolution& resolution) const;

  runtime::Executor* executor_ = nullptr;
  std::map<std::string, ExportReach> libraries_;  // by soname
  std::vector<std::string> sonames_;
  // Symbol interner. Registration is single-threaded and in canonical
  // library order, so ids are deterministic; they never leak into exports.
  StringPool symbols_;
  // Dense symbol id -> index into reach_refs_, or kNoRef. First registration
  // of a symbol wins (linker search order).
  std::vector<uint32_t> ref_of_symbol_;
  std::vector<ReachRef> reach_refs_;
  static constexpr uint32_t kNoRef = 0xffffffffu;
};

}  // namespace lapis::analysis

#endif  // LAPIS_SRC_ANALYSIS_LIBRARY_RESOLVER_H_
