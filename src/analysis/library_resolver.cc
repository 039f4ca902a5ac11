#include "src/analysis/library_resolver.h"

#include <vector>

namespace lapis::analysis {

Status LibraryResolver::AddLibrary(
    std::shared_ptr<const BinaryAnalysis> library) {
  if (library == nullptr) {
    return InvalidArgumentError("null library");
  }
  ExportReach reach = library->PerExportReachable(executor_);
  return AddLibrary(std::move(library), std::move(reach));
}

Status LibraryResolver::AddLibrary(std::shared_ptr<const BinaryAnalysis> library,
                                   ExportReach export_reach) {
  if (library == nullptr) {
    return InvalidArgumentError("null library");
  }
  const std::string& soname = library->soname();
  if (soname.empty()) {
    return InvalidArgumentError("library has no soname");
  }
  if (libraries_.contains(soname)) {
    return FailedPreconditionError("library already registered: " + soname);
  }
  const uint32_t soname_index = static_cast<uint32_t>(sonames_.size());
  auto [lib_it, inserted] =
      libraries_.emplace(soname, std::move(export_reach));
  (void)inserted;
  sonames_.push_back(soname);
  for (const auto& [symbol, reach] : lib_it->second) {
    const uint32_t symbol_id = symbols_.Intern(symbol);
    if (symbol_id >= ref_of_symbol_.size()) {
      ref_of_symbol_.resize(symbol_id + 1, kNoRef);
    }
    if (ref_of_symbol_[symbol_id] != kNoRef) {
      continue;  // first registration wins
    }
    ReachRef ref;
    ref.reach = &reach;
    ref.soname_index = soname_index;
    ref.plt_call_ids.reserve(reach.plt_calls.size());
    for (const std::string& callee : reach.plt_calls) {
      ref.plt_call_ids.push_back(symbols_.Intern(callee));
    }
    ref_of_symbol_[symbol_id] = static_cast<uint32_t>(reach_refs_.size());
    reach_refs_.push_back(std::move(ref));
  }
  // Interning plt callees may have grown the pool past ref_of_symbol_.
  if (ref_of_symbol_.size() < symbols_.size()) {
    ref_of_symbol_.resize(symbols_.size(), kNoRef);
  }
  return Status::Ok();
}

const LibraryResolver::ExportReach* LibraryResolver::ExportReachOf(
    const std::string& soname) const {
  auto it = libraries_.find(soname);
  return it == libraries_.end() ? nullptr : &it->second;
}

std::string LibraryResolver::ExporterOf(const std::string& symbol) const {
  const uint32_t id = symbols_.Find(symbol);
  if (id == StringPool::kNotFound || id >= ref_of_symbol_.size() ||
      ref_of_symbol_[id] == kNoRef) {
    return std::string();
  }
  return sonames_[reach_refs_[ref_of_symbol_[id]].soname_index];
}

void LibraryResolver::Expand(const std::set<std::string>& initial_symbols,
                             Resolution& resolution) const {
  // The fixpoint runs over interned ids: a vector worklist plus a dense
  // visited bitmap, no per-step string allocation. Symbols never interned at
  // registration time cannot resolve, so they go straight to
  // unresolved_imports without touching the pool (Resolve* stays const and
  // concurrency-safe).
  std::vector<uint32_t> worklist;
  worklist.reserve(initial_symbols.size());
  for (const std::string& symbol : initial_symbols) {
    const uint32_t id = symbols_.Find(symbol);
    if (id == StringPool::kNotFound) {
      resolution.unresolved_imports.insert(symbol);
    } else {
      worklist.push_back(id);
    }
  }
  std::vector<bool> visited(ref_of_symbol_.size(), false);
  while (!worklist.empty()) {
    const uint32_t id = worklist.back();
    worklist.pop_back();
    if (visited[id]) {
      continue;
    }
    visited[id] = true;
    const uint32_t ref_index = ref_of_symbol_[id];
    if (ref_index == kNoRef) {
      resolution.unresolved_imports.insert(std::string(symbols_.NameOf(id)));
      continue;
    }
    const ReachRef& ref = reach_refs_[ref_index];
    resolution.used_exports[sonames_[ref.soname_index]].insert(
        std::string(symbols_.NameOf(id)));
    resolution.footprint.MergeFrom(ref.reach->footprint);
    resolution.reachable_function_count += ref.reach->function_count;
    for (const uint32_t next : ref.plt_call_ids) {
      if (!visited[next]) {
        worklist.push_back(next);
      }
    }
  }
}

LibraryResolver::Resolution LibraryResolver::ResolveExecutable(
    const BinaryAnalysis& exe) const {
  Resolution resolution;
  BinaryAnalysis::ReachableResult entry_reach = exe.FromEntry();
  resolution.footprint.MergeFrom(entry_reach.footprint);
  resolution.reachable_function_count = entry_reach.function_count;
  Expand(entry_reach.plt_calls, resolution);
  return resolution;
}

LibraryResolver::Resolution LibraryResolver::ResolveFromSymbols(
    const std::vector<std::string>& symbols) const {
  Resolution resolution;
  Expand(std::set<std::string>(symbols.begin(), symbols.end()), resolution);
  return resolution;
}

Result<LibraryResolver::Resolution> LibraryResolver::ResolveWholeLibrary(
    const std::string& soname) const {
  auto it = libraries_.find(soname);
  if (it == libraries_.end()) {
    return NotFoundError("library not registered: " + soname);
  }
  Resolution resolution;
  std::set<std::string> roots;
  for (const auto& [symbol, reach] : it->second) {
    (void)reach;
    roots.insert(symbol);
  }
  Expand(roots, resolution);
  return resolution;
}

}  // namespace lapis::analysis
