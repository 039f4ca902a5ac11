#include "src/corpus/api_join.h"

#include <algorithm>
#include <string_view>

#include "src/corpus/syscall_table.h"

namespace lapis::corpus {

namespace {

constexpr uint32_t kNoId = UINT32_MAX;

}  // namespace

void PackageApis::Finish() {
  std::sort(footprint.begin(), footprint.end());
  footprint.erase(std::unique(footprint.begin(), footprint.end()),
                  footprint.end());
  std::sort(recovered_syscalls.begin(), recovered_syscalls.end());
  recovered_syscalls.erase(
      std::unique(recovered_syscalls.begin(), recovered_syscalls.end()),
      recovered_syscalls.end());
}

ApiIdMap::ApiIdMap(const analysis::LibraryResolver& resolver,
                   const std::string& libc_soname,
                   const core::StringInterner& path_interner,
                   const core::StringInterner& libc_interner)
    : resolver_(resolver),
      path_interner_(path_interner),
      libc_of_symbol_(resolver.symbol_count(), kNoId),
      path_of_path_(resolver.path_count()) {
  // The libc-symbol API surface (§5, Table 7) is the 1274-entry universe
  // the interner holds. libc also exports the non-universe `syscall` clone
  // that tail-plt wrappers jump through; it carries no importance row and
  // no variant lists it, so it must not enter the dataset.
  for (uint32_t symbol = 0; symbol < libc_of_symbol_.size(); ++symbol) {
    if (resolver.SymbolExporter(symbol) == libc_soname) {
      libc_of_symbol_[symbol] = libc_interner.Find(resolver.SymbolName(symbol));
    }
  }
  for (uint32_t path = 0; path < path_of_path_.size(); ++path) {
    path_of_path_[path] = path_interner.Find(resolver.PathName(path));
  }
}

void ApiIdMap::Add(const analysis::LibraryResolver::ResolvedIds& ids,
                   PackageApis& out) const {
  for (int nr : ids.syscalls) {
    if (nr >= 0 && nr < kSyscallCount) {
      out.footprint.push_back(core::SyscallApi(static_cast<uint32_t>(nr)));
    }
  }
  out.recovered_syscalls.insert(out.recovered_syscalls.end(),
                                ids.syscalls.begin(), ids.syscalls.end());
  for (uint32_t op : ids.ioctl_ops) {
    out.footprint.push_back(core::IoctlApi(op));
  }
  for (uint32_t op : ids.fcntl_ops) {
    out.footprint.push_back(core::FcntlApi(op));
  }
  for (uint32_t op : ids.prctl_ops) {
    out.footprint.push_back(core::PrctlApi(op));
  }
  // Paths outside the universe, listed in path-name order per executable.
  std::vector<std::string_view> fresh;
  for (uint32_t path : ids.paths) {
    const uint32_t id = path_of_path_[path];
    if (id != kNoId) {
      out.footprint.push_back(core::ApiId{core::ApiKind::kPseudoFile, id});
    } else {
      fresh.push_back(resolver_.PathName(path));
    }
  }
  for (const std::string& path : ids.other_paths) {
    const uint32_t id = path_interner_.Find(path);
    if (id != kNoId) {
      out.footprint.push_back(core::ApiId{core::ApiKind::kPseudoFile, id});
    } else {
      fresh.push_back(path);
    }
  }
  std::sort(fresh.begin(), fresh.end());
  for (std::string_view path : fresh) {
    if (std::find(out.new_paths.begin(), out.new_paths.end(), path) ==
        out.new_paths.end()) {
      out.new_paths.emplace_back(path);
    }
  }
  for (uint32_t symbol : ids.used_exports) {
    const uint32_t id = libc_of_symbol_[symbol];
    if (id != kNoId) {
      out.footprint.push_back(core::ApiId{core::ApiKind::kLibcFn, id});
    }
  }
}

void MergeNewPaths(PackageApis& package, core::StringInterner& path_interner) {
  for (const std::string& path : package.new_paths) {
    package.footprint.push_back(core::ApiId{core::ApiKind::kPseudoFile,
                                            path_interner.Intern(path)});
  }
}

}  // namespace lapis::corpus
