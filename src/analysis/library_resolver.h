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
//
// Registration walks each export's reachable code once, with the walk that
// resolution runs from an executable's entry, and stores the reach as
// sorted id spans (syscall numbers, opcodes, pseudo-path ids, callee-symbol
// ids), interning names into StringInterners that only registration
// writes. Resolution walks those spans into a ResolvedIds; the named
// Resolution is rendered from it on demand.
// Neither is cached: a warm study registers and resolves again from its
// cache-restored analyses, which costs less than decoding either would.

#ifndef LAPIS_SRC_ANALYSIS_LIBRARY_RESOLVER_H_
#define LAPIS_SRC_ANALYSIS_LIBRARY_RESOLVER_H_

#include <array>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/binary_analyzer.h"
#include "src/util/status.h"
#include "src/util/string_interner.h"

namespace lapis::analysis {

// Registration is single-threaded; the const methods read the tables
// without a lock and are safe to call concurrently once every library is
// registered.
class LibraryResolver {
 public:
  // Registers an analyzed shared library under its soname; precomputes and
  // memoizes per-export reachability. First registration of a symbol wins
  // (mirrors linker search order), and a name the library exports twice
  // registers its first definition. Only the reachability is kept; the
  // caller may drop the analysis afterwards.
  Status AddLibrary(std::shared_ptr<const BinaryAnalysis> library);

  // A resolved footprint over the resolver's ids. Every vector is sorted
  // and unique.
  struct ResolvedIds {
    std::vector<int> syscalls;
    std::vector<uint32_t> ioctl_ops;
    std::vector<uint32_t> fcntl_ops;
    std::vector<uint32_t> prctl_ops;
    std::vector<int> int80_syscalls;
    // Pseudo paths by path id (PathName); `other_paths` holds, by name, the
    // executable's own paths that no registered export reaches.
    std::vector<uint32_t> paths;
    std::vector<std::string> other_paths;
    // Exports pulled in, by symbol id (SymbolExporter names the library).
    std::vector<uint32_t> used_exports;
    std::vector<std::string> unresolved_imports;
    int unknown_syscall_sites = 0;
    int unknown_opcode_sites = 0;
    int indirect_call_sites = 0;
    int int80_sites = 0;
    size_t reachable_function_count = 0;
  };

  struct Resolution {
    Footprint footprint;
    // Exports actually pulled in, grouped by soname. The "libc.so.6" slice
    // is each package's libc API footprint.
    std::map<std::string, std::set<std::string>> used_exports;
    // Imported symbols no registered library exports.
    std::set<std::string> unresolved_imports;
    size_t reachable_function_count = 0;
  };

  // Full footprint of an executable: the code reachable from `roots`
  // (function start vaddrs; by default the entry point) plus the closure of
  // everything it (transitively) imports.
  ResolvedIds ResolveIds(const BinaryAnalysis& exe) const {
    return ResolveIds(exe, {exe.entry()});
  }
  ResolvedIds ResolveIds(const BinaryAnalysis& exe,
                         const std::vector<uint64_t>& roots) const;
  Resolution ResolveExecutable(const BinaryAnalysis& exe) const {
    return Render(ResolveIds(exe));
  }
  Resolution ResolveExecutable(const BinaryAnalysis& exe,
                               const std::vector<uint64_t>& roots) const {
    return Render(ResolveIds(exe, roots));
  }

  // Closure starting from a set of symbol names (used for interpreter
  // packages, where the interpreter's public entry points over-approximate
  // the scripts' footprints — paper §2.3).
  Resolution ResolveFromSymbols(const std::vector<std::string>& symbols) const;

  // Names the ids: the sets list names in lexicographic order whatever
  // order they were interned in.
  Resolution Render(const ResolvedIds& ids) const;

  size_t library_count() const { return libraries_.size(); }

  // The registered library exporting `symbol`, or empty string.
  std::string ExporterOf(const std::string& symbol) const;

  // The id tables ResolvedIds refers to; fixed once registration ends.
  size_t symbol_count() const { return symbols_.size(); }
  const std::string& SymbolName(uint32_t symbol) const {
    return symbols_.NameOf(symbol);
  }
  // Soname of the library `symbol` resolves to; empty if none exports it.
  const std::string& SymbolExporter(uint32_t symbol) const;
  size_t path_count() const { return paths_.size(); }
  const std::string& PathName(uint32_t path) const {
    return paths_.NameOf(path);
  }

 private:
  static constexpr uint32_t kNone = StringInterner::kNotFound;

  // One export's memoized reach: span k is values_[bounds[k], bounds[k+1]).
  // Syscall numbers are stored as their uint32_t bit patterns.
  enum Span {
    kSyscalls,
    kIoctlOps,
    kFcntlOps,
    kPrctlOps,
    kInt80Syscalls,
    kPaths,    // path ids
    kCallees,  // symbol ids of the export's plt calls
    kSpanCount,
  };
  struct ExportRef {
    uint32_t symbol = 0;
    uint32_t library = 0;
    std::array<uint32_t, kSpanCount + 1> bounds{};
    int unknown_syscall_sites = 0;
    int unknown_opcode_sites = 0;
    int indirect_call_sites = 0;
    int int80_sites = 0;
    size_t function_count = 0;
  };

  // Adds the footprint of `binary`'s code reachable from `roots` and the
  // reached function count to `out`, unsorted; returns, per import of
  // `binary`, whether a reached function calls it.
  std::vector<bool> Walk(const BinaryAnalysis& binary,
                         const std::vector<uint64_t>& roots,
                         ResolvedIds& out) const;
  // Adds one export's spans and counters to `out`, unsorted.
  void AppendReach(const ExportRef& ref, ResolvedIds& out) const;
  // Adds a named footprint's values and counters to `out`, unsorted; paths
  // outside the path table go to `other_paths`.
  void AddFootprint(const Footprint& fp, ResolvedIds& out) const;
  // Adds `symbol` to the closure's roots, or to `out`'s unresolved imports
  // if no registered library mentions it.
  void AddRoot(std::string_view symbol, std::vector<uint32_t>& roots,
               ResolvedIds& out) const;
  // Walks the import closure of `worklist` into `out`, then sorts it.
  void Expand(std::vector<uint32_t> worklist, ResolvedIds& out) const;

  StringInterner libraries_;  // sonames, in registration order
  StringInterner symbols_;
  StringInterner paths_;
  std::vector<ExportRef> exports_;  // registered exports, in order
  std::vector<uint32_t> values_;    // span storage
  // Symbol id -> index into exports_ of the first registered exporter.
  std::vector<uint32_t> ref_of_symbol_;
};

}  // namespace lapis::analysis

#endif  // LAPIS_SRC_ANALYSIS_LIBRARY_RESOLVER_H_
