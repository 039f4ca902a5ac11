// The resolve stage's join: resolver ids to dataset ApiIds.
//
// RunStudy's resolve shard turns each executable's ResolvedIds into the
// package's dataset footprint through two tables built once after the last
// library registers (resolver symbol -> libc id, resolver path -> path id);
// a shard looks up by name only an executable's own paths that no library
// export reaches. A pseudo path outside the seeded path universe cannot get
// an id inside a shard (the interner is read-only there); the shard lists
// it by name and the canonical merge interns it.

#ifndef LAPIS_SRC_CORPUS_API_JOIN_H_
#define LAPIS_SRC_CORPUS_API_JOIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/library_resolver.h"
#include "src/core/api_id.h"

namespace lapis::corpus {

// One package's executables as dataset ApiIds.
struct PackageApis {
  std::vector<core::ApiId> footprint;  // sorted and unique after Finish()
  // Pseudo paths outside the path interner, first seen in (executable,
  // path-name) order; MergeNewPaths interns them.
  std::vector<std::string> new_paths;
  // Every recovered syscall number, in range or not (ground truth).
  std::vector<int> recovered_syscalls;  // sorted and unique after Finish()

  // Sorts and dedups once the package's last executable is added.
  void Finish();
};

class ApiIdMap {
 public:
  // `libc_soname` names the library whose exports are the libc API surface.
  // Symbols and paths are looked up once here; the interners must outlive
  // the map and stay unchanged while shards run.
  ApiIdMap(const analysis::LibraryResolver& resolver,
           const std::string& libc_soname,
           const core::StringInterner& path_interner,
           const core::StringInterner& libc_interner);

  // Adds one executable's resolution to its package. Read-only, so safe on
  // any worker shard.
  void Add(const analysis::LibraryResolver::ResolvedIds& ids,
           PackageApis& out) const;

 private:
  const analysis::LibraryResolver& resolver_;
  const core::StringInterner& path_interner_;
  std::vector<uint32_t> libc_of_symbol_;  // UINT32_MAX = not a libc API
  std::vector<uint32_t> path_of_path_;    // UINT32_MAX = outside the universe
};

// The canonical-order half of the join: interns `package`'s new paths, in
// order, and appends them to its footprint. Call for packages in package
// order so ids match at any worker count.
void MergeNewPaths(PackageApis& package, core::StringInterner& path_interner);

}  // namespace lapis::corpus

#endif  // LAPIS_SRC_CORPUS_API_JOIN_H_
