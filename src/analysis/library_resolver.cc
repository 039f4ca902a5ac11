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
  std::vector<uint32_t> symbol_of_import(library->imports().size());
  for (uint32_t id = 0; id < symbol_of_import.size(); ++id) {
    symbol_of_import[id] = symbols_.Intern(library->imports()[id]);
  }
  for (const std::string& name : library->exports()) {
    const FunctionInfo* fn = library->FunctionNamed(name);
    if (fn == nullptr) {
      continue;
    }
    const uint32_t symbol = symbols_.Intern(name);
    ref_of_symbol_.resize(symbols_.size(), kNone);
    if (ref_of_symbol_[symbol] != kNone) {  // first registration wins
      continue;
    }
    ResolvedIds reach;
    const std::vector<bool> called = Walk(*library, {fn->vaddr}, reach);
    for (const std::string& path : reach.other_paths) {
      reach.paths.push_back(paths_.Intern(path));
    }
    std::vector<uint32_t> callees;
    for (uint32_t id = 0; id < called.size(); ++id) {
      if (called[id]) {
        callees.push_back(symbol_of_import[id]);
      }
    }
    ExportRef ref;
    ref.symbol = symbol;
    ref.library = library_index;
    ref.bounds[0] = static_cast<uint32_t>(values_.size());
    auto add_span = [&](Span span, auto& values) {
      SortUnique(values);
      values_.insert(values_.end(), values.begin(), values.end());
      ref.bounds[span + 1] = static_cast<uint32_t>(values_.size());
    };
    add_span(kSyscalls, reach.syscalls);
    add_span(kIoctlOps, reach.ioctl_ops);
    add_span(kFcntlOps, reach.fcntl_ops);
    add_span(kPrctlOps, reach.prctl_ops);
    add_span(kInt80Syscalls, reach.int80_syscalls);
    add_span(kPaths, reach.paths);
    add_span(kCallees, callees);
    ref.unknown_syscall_sites = reach.unknown_syscall_sites;
    ref.unknown_opcode_sites = reach.unknown_opcode_sites;
    ref.indirect_call_sites = reach.indirect_call_sites;
    ref.int80_sites = reach.int80_sites;
    ref.function_count = reach.reachable_function_count;
    ref_of_symbol_[symbol] = static_cast<uint32_t>(exports_.size());
    exports_.push_back(ref);
  }
  // The imports grew the symbol table even if no export registered.
  ref_of_symbol_.resize(symbols_.size(), kNone);
  return Status::Ok();
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

std::vector<bool> LibraryResolver::Walk(const BinaryAnalysis& binary,
                                        const std::vector<uint64_t>& roots,
                                        ResolvedIds& out) const {
  std::vector<bool> called(binary.imports().size(), false);
  binary.ForEachReachable(roots, [&](const FunctionInfo& fn) {
    ++out.reachable_function_count;
    AddFootprint(fn.local, out);
    for (uint32_t id : fn.plt_calls) {
      called[id] = true;
    }
  });
  return called;
}

LibraryResolver::ResolvedIds LibraryResolver::ResolveIds(
    const BinaryAnalysis& exe, const std::vector<uint64_t>& roots) const {
  // The reached code's footprint goes straight into the id vectors; Expand
  // sorts and dedups them with the imports' spans. Each distinct import
  // called is looked up once, after the walk.
  ResolvedIds out;
  const std::vector<bool> called = Walk(exe, roots, out);
  std::vector<uint32_t> symbols;
  for (uint32_t id = 0; id < called.size(); ++id) {
    if (called[id]) {
      AddRoot(exe.imports()[id], symbols, out);
    }
  }
  Expand(std::move(symbols), out);
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
