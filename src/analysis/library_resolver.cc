#include "src/analysis/library_resolver.h"

#include <algorithm>

namespace lapis::analysis {

namespace {

template <typename T>
void SortUnique(std::vector<T>& values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
}

}  // namespace

Status LibraryResolver::AddLibrary(
    std::shared_ptr<const BinaryAnalysis> library) {
  if (library == nullptr) {
    return InvalidArgumentError("null library");
  }
  const std::string& soname = library->soname();
  if (soname.empty()) {
    return InvalidArgumentError("library has no soname");
  }
  if (libraries_.Find(soname) != kNone) {
    return FailedPreconditionError("library already registered: " + soname);
  }
  const uint32_t library_index = libraries_.Intern(soname);
  for (const auto& [symbol, reach] : library->PerExportReachable(executor_)) {
    ExportRef ref;
    ref.symbol = symbols_.Intern(symbol);
    ref.library = library_index;
    const Footprint& fp = reach.footprint;
    auto close_span = [&](Span span) {
      ref.bounds[span + 1] = static_cast<uint32_t>(values_.size());
    };
    ref.bounds[0] = static_cast<uint32_t>(values_.size());
    values_.insert(values_.end(), fp.syscalls.begin(), fp.syscalls.end());
    close_span(kSyscalls);
    values_.insert(values_.end(), fp.ioctl_ops.begin(), fp.ioctl_ops.end());
    close_span(kIoctlOps);
    values_.insert(values_.end(), fp.fcntl_ops.begin(), fp.fcntl_ops.end());
    close_span(kFcntlOps);
    values_.insert(values_.end(), fp.prctl_ops.begin(), fp.prctl_ops.end());
    close_span(kPrctlOps);
    values_.insert(values_.end(), fp.int80_syscalls.begin(),
                   fp.int80_syscalls.end());
    close_span(kInt80Syscalls);
    for (const std::string& path : fp.pseudo_paths) {
      values_.push_back(paths_.Intern(path));
    }
    close_span(kPaths);
    for (const std::string& callee : reach.plt_calls) {
      values_.push_back(symbols_.Intern(callee));
    }
    close_span(kCallees);
    ref.unknown_syscall_sites = fp.unknown_syscall_sites;
    ref.unknown_opcode_sites = fp.unknown_opcode_sites;
    ref.indirect_call_sites = fp.indirect_call_sites;
    ref.int80_sites = fp.int80_sites;
    ref.function_count = reach.function_count;
    // Interning callees may have grown the symbol table.
    ref_of_symbol_.resize(symbols_.size(), kNone);
    if (ref_of_symbol_[ref.symbol] == kNone) {  // first registration wins
      ref_of_symbol_[ref.symbol] = static_cast<uint32_t>(exports_.size());
    }
    exports_.push_back(ref);
  }
  library_bounds_.push_back(static_cast<uint32_t>(exports_.size()));
  return Status::Ok();
}

std::optional<LibraryResolver::ExportReach> LibraryResolver::ExportReachOf(
    const std::string& soname) const {
  const uint32_t library = libraries_.Find(soname);
  if (library == kNone) {
    return std::nullopt;
  }
  ExportReach out;
  for (uint32_t i = library_bounds_[library]; i < library_bounds_[library + 1];
       ++i) {
    const ExportRef& ref = exports_[i];
    ResolvedIds ids;
    AppendReach(ref, ids);
    Resolution rendered = Render(ids);
    BinaryAnalysis::ReachableResult& reach = out[symbols_.NameOf(ref.symbol)];
    reach.footprint = std::move(rendered.footprint);
    reach.function_count = rendered.reachable_function_count;
    for (uint32_t k = ref.bounds[kCallees]; k < ref.bounds[kCallees + 1];
         ++k) {
      reach.plt_calls.insert(symbols_.NameOf(values_[k]));
    }
  }
  return out;
}

const std::string& LibraryResolver::SymbolExporter(uint32_t symbol) const {
  static const std::string kNoExporter;
  const uint32_t ref = ref_of_symbol_[symbol];
  return ref == kNone ? kNoExporter
                      : libraries_.NameOf(exports_[ref].library);
}

std::string LibraryResolver::ExporterOf(const std::string& symbol) const {
  const uint32_t id = symbols_.Find(symbol);
  return id == kNone ? std::string() : SymbolExporter(id);
}

void LibraryResolver::AppendReach(const ExportRef& ref,
                                  ResolvedIds& out) const {
  auto append = [&](Span k, auto& to) {
    to.insert(to.end(), values_.begin() + ref.bounds[k],
              values_.begin() + ref.bounds[k + 1]);
  };
  append(kSyscalls, out.syscalls);
  append(kIoctlOps, out.ioctl_ops);
  append(kFcntlOps, out.fcntl_ops);
  append(kPrctlOps, out.prctl_ops);
  append(kInt80Syscalls, out.int80_syscalls);
  append(kPaths, out.paths);
  out.unknown_syscall_sites += ref.unknown_syscall_sites;
  out.unknown_opcode_sites += ref.unknown_opcode_sites;
  out.indirect_call_sites += ref.indirect_call_sites;
  out.int80_sites += ref.int80_sites;
  out.reachable_function_count += ref.function_count;
}

void LibraryResolver::Expand(std::vector<uint32_t> worklist,
                             ResolvedIds& out) const {
  // The fixpoint runs over symbol ids: a vector worklist plus a dense
  // visited bitmap, no per-step string allocation.
  std::vector<bool> visited(symbols_.size(), false);
  while (!worklist.empty()) {
    const uint32_t symbol = worklist.back();
    worklist.pop_back();
    if (visited[symbol]) {
      continue;
    }
    visited[symbol] = true;
    const uint32_t ref_index = ref_of_symbol_[symbol];
    if (ref_index == kNone) {
      out.unresolved_imports.push_back(symbols_.NameOf(symbol));
      continue;
    }
    const ExportRef& ref = exports_[ref_index];
    out.used_exports.push_back(symbol);
    AppendReach(ref, out);
    for (uint32_t k = ref.bounds[kCallees]; k < ref.bounds[kCallees + 1];
         ++k) {
      if (!visited[values_[k]]) {
        worklist.push_back(values_[k]);
      }
    }
  }
  SortUnique(out.syscalls);
  SortUnique(out.ioctl_ops);
  SortUnique(out.fcntl_ops);
  SortUnique(out.prctl_ops);
  SortUnique(out.int80_syscalls);
  SortUnique(out.paths);
  SortUnique(out.other_paths);
  SortUnique(out.used_exports);
  SortUnique(out.unresolved_imports);
}

void LibraryResolver::AddFootprint(const Footprint& fp,
                                   ResolvedIds& out) const {
  out.syscalls.insert(out.syscalls.end(), fp.syscalls.begin(),
                      fp.syscalls.end());
  out.ioctl_ops.insert(out.ioctl_ops.end(), fp.ioctl_ops.begin(),
                       fp.ioctl_ops.end());
  out.fcntl_ops.insert(out.fcntl_ops.end(), fp.fcntl_ops.begin(),
                       fp.fcntl_ops.end());
  out.prctl_ops.insert(out.prctl_ops.end(), fp.prctl_ops.begin(),
                       fp.prctl_ops.end());
  out.int80_syscalls.insert(out.int80_syscalls.end(),
                            fp.int80_syscalls.begin(),
                            fp.int80_syscalls.end());
  for (const std::string& path : fp.pseudo_paths) {
    const uint32_t id = paths_.Find(path);
    if (id == kNone) {
      out.other_paths.push_back(path);
    } else {
      out.paths.push_back(id);
    }
  }
  out.unknown_syscall_sites += fp.unknown_syscall_sites;
  out.unknown_opcode_sites += fp.unknown_opcode_sites;
  out.indirect_call_sites += fp.indirect_call_sites;
  out.int80_sites += fp.int80_sites;
}

void LibraryResolver::AddRoot(std::string_view symbol,
                              std::vector<uint32_t>& roots,
                              ResolvedIds& out) const {
  // Symbols never interned at registration cannot resolve.
  const uint32_t id = symbols_.Find(symbol);
  if (id == kNone) {
    out.unresolved_imports.emplace_back(symbol);
  } else {
    roots.push_back(id);
  }
}

LibraryResolver::ResolvedIds LibraryResolver::ResolveIds(
    const BinaryAnalysis& exe) const {
  // The entry-reachable code's footprint goes straight into the id
  // vectors; Expand sorts and dedups them with the imports' spans. Each
  // distinct import called is looked up once, after the walk.
  ResolvedIds out;
  std::vector<bool> called(exe.imports().size(), false);
  exe.ForEachReachable({exe.entry()}, [&](const FunctionInfo& fn) {
    ++out.reachable_function_count;
    AddFootprint(fn.local, out);
    for (uint32_t id : fn.plt_calls) {
      called[id] = true;
    }
  });
  std::vector<uint32_t> roots;
  for (uint32_t id = 0; id < called.size(); ++id) {
    if (called[id]) {
      AddRoot(exe.imports()[id], roots, out);
    }
  }
  Expand(std::move(roots), out);
  return out;
}

LibraryResolver::Resolution LibraryResolver::ResolveFromSymbols(
    const std::vector<std::string>& symbols) const {
  ResolvedIds out;
  std::vector<uint32_t> roots;
  for (const std::string& symbol : symbols) {
    AddRoot(symbol, roots, out);
  }
  Expand(std::move(roots), out);
  return Render(out);
}

Result<LibraryResolver::Resolution> LibraryResolver::ResolveWholeLibrary(
    const std::string& soname) const {
  const uint32_t library = libraries_.Find(soname);
  if (library == kNone) {
    return NotFoundError("library not registered: " + soname);
  }
  std::vector<uint32_t> roots;
  for (uint32_t i = library_bounds_[library]; i < library_bounds_[library + 1];
       ++i) {
    roots.push_back(exports_[i].symbol);
  }
  ResolvedIds out;
  Expand(std::move(roots), out);
  return Render(out);
}

LibraryResolver::Resolution LibraryResolver::Render(
    const ResolvedIds& ids) const {
  Resolution out;
  Footprint& fp = out.footprint;
  fp.syscalls.insert(ids.syscalls.begin(), ids.syscalls.end());
  fp.ioctl_ops.insert(ids.ioctl_ops.begin(), ids.ioctl_ops.end());
  fp.fcntl_ops.insert(ids.fcntl_ops.begin(), ids.fcntl_ops.end());
  fp.prctl_ops.insert(ids.prctl_ops.begin(), ids.prctl_ops.end());
  fp.int80_syscalls.insert(ids.int80_syscalls.begin(),
                           ids.int80_syscalls.end());
  for (uint32_t path : ids.paths) {
    fp.pseudo_paths.insert(paths_.NameOf(path));
  }
  fp.pseudo_paths.insert(ids.other_paths.begin(), ids.other_paths.end());
  fp.unknown_syscall_sites = ids.unknown_syscall_sites;
  fp.unknown_opcode_sites = ids.unknown_opcode_sites;
  fp.indirect_call_sites = ids.indirect_call_sites;
  fp.int80_sites = ids.int80_sites;
  for (uint32_t symbol : ids.used_exports) {
    out.used_exports[SymbolExporter(symbol)].insert(symbols_.NameOf(symbol));
  }
  out.unresolved_imports.insert(ids.unresolved_imports.begin(),
                                ids.unresolved_imports.end());
  out.reachable_function_count = ids.reachable_function_count;
  return out;
}

}  // namespace lapis::analysis
