#include "src/analysis/binary_analyzer.h"

#include <algorithm>

#include "src/analysis/cfg.h"
#include "src/analysis/dataflow.h"
#include "src/analysis/ipa.h"
#include "src/disasm/decoder.h"
#include "src/util/strings.h"

namespace lapis::analysis {

namespace {

using disasm::Insn;
using disasm::InsnKind;

// Reads the NUL-terminated string at `vaddr` from the image, if printable.
std::optional<std::string> ReadStringAt(const elf::ElfImage& image,
                                        uint64_t vaddr) {
  auto s = image.CStringAtVaddr(vaddr);
  if (s.has_value() && lapis::IsPrintableAscii(*s)) {
    return s;
  }
  return std::nullopt;
}

}  // namespace

const FunctionInfo* BinaryAnalysis::FunctionAt(uint64_t vaddr) const {
  auto it = std::lower_bound(
      functions_.begin(), functions_.end(), vaddr,
      [](const FunctionInfo& fn, uint64_t v) { return fn.vaddr < v; });
  if (it == functions_.end() || it->vaddr != vaddr) {
    return nullptr;
  }
  return &*it;
}

const FunctionInfo* BinaryAnalysis::FunctionNamed(std::string_view name) const {
  auto it = std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [this](uint32_t i, std::string_view n) { return functions_[i].name < n; });
  if (it == by_name_.end() || functions_[*it].name != name) {
    return nullptr;
  }
  return &functions_[*it];
}

void BinaryAnalysis::IndexNames() {
  by_name_.resize(functions_.size());
  for (uint32_t i = 0; i < by_name_.size(); ++i) {
    by_name_[i] = i;
  }
  // Of two functions with one name, the first comes first.
  std::sort(by_name_.begin(), by_name_.end(), [this](uint32_t a, uint32_t b) {
    const int order = functions_[a].name.compare(functions_[b].name);
    return order < 0 || (order == 0 && a < b);
  });
}

void BinaryAnalysis::ForEachReachable(
    const std::vector<uint64_t>& roots,
    const std::function<void(const FunctionInfo&)>& visit) const {
  std::vector<bool> visited(functions_.size(), false);
  std::vector<uint64_t> queue(roots.begin(), roots.end());
  for (size_t head = 0; head < queue.size(); ++head) {
    const FunctionInfo* fn = FunctionAt(queue[head]);
    if (fn == nullptr) {
      continue;
    }
    const size_t index = static_cast<size_t>(fn - functions_.data());
    if (visited[index]) {
      continue;
    }
    visited[index] = true;
    visit(*fn);
    queue.insert(queue.end(), fn->local_callees.begin(),
                 fn->local_callees.end());
  }
}

namespace {

// System V argument registers, slot order matching IpaCallEdge::args.
constexpr uint8_t kSysVArgRegs[6] = {disasm::kRdi, disasm::kRsi, disasm::kRdx,
                                     disasm::kRcx, disasm::kR8,  disasm::kR9};

// Interprets one function's decoded body against the per-instruction
// register facts from the propagation pass: recovers syscall numbers and
// vectored-call opcodes, records PLT calls (appending their dynsym indices
// to `plt_symbols`), intra-binary callees, and hard-coded pseudo paths. All
// state questions go through `states`; this loop carries none of its own.
// With `ipa` non-null (use_ipa), sites whose deciding register holds an
// argument fact are deferred as pending sites instead of counted unknown,
// and call edges carry argument bindings for the interprocedural pass.
void CollectFunctionFacts(const elf::ElfImage& image,
                          const AnalyzerOptions& options,
                          const disasm::SweepResult& sweep,
                          const std::vector<RegState>& states,
                          const std::vector<uint64_t>& function_starts,
                          FunctionInfo& info, BinaryAnalysis& analysis,
                          std::vector<uint32_t>& plt_symbols,
                          IpaFunctionFacts* ipa) {
  auto defer_site = [&](const RegState& state, IpaPendingSite::Kind kind,
                        const AbsVal& number) {
    IpaPendingSite site;
    site.kind = kind;
    site.number = number;
    site.op_rsi = state.regs[disasm::kRsi];
    site.op_rdi = state.regs[disasm::kRdi];
    ipa->sites.push_back(site);
  };
  // A vectored call's opcode in `arg_reg`: recorded when constant,
  // deferred when it is an argument fact, otherwise counted unknown.
  auto record_op = [&](const RegState& state, uint8_t arg_reg,
                       SortedSet<uint32_t>& ops, IpaPendingSite::Kind kind) {
    const AbsVal& arg = state.regs[arg_reg];
    if (arg.is_const()) {
      ops.insert(static_cast<uint32_t>(arg.value));
    } else if (ipa != nullptr && arg.is_arg()) {
      defer_site(state, kind, AbsVal::Top());
    } else {
      ++info.local.unknown_opcode_sites;
    }
  };
  auto add_call_edge = [&](const RegState& state, uint64_t callee) {
    IpaCallEdge edge;
    edge.callee_vaddr = callee;
    for (int s = 0; s < 6; ++s) {
      edge.args[s] = state.regs[kSysVArgRegs[s]];
    }
    ipa->edges.push_back(edge);
  };
  for (size_t i = 0; i < sweep.insns.size(); ++i) {
    const Insn& insn = sweep.insns[i];
    const RegState& state = states[i];
    switch (insn.kind) {
      case InsnKind::kLeaRipRel: {
        if (options.collect_pseudo_paths) {
          auto s = ReadStringAt(image, insn.target);
          if (s.has_value() && lapis::IsPseudoFilePath(*s)) {
            info.local.pseudo_paths.insert(lapis::CanonicalizePseudoPath(*s));
          }
        }
        break;
      }
      case InsnKind::kSyscall:
      case InsnKind::kSysenter: {
        ++analysis.total_syscall_sites;
        const AbsVal& rax = state.regs[disasm::kRax];
        if (rax.is_const()) {
          int nr = static_cast<int>(rax.value);
          info.local.syscalls.insert(nr);
          if (options.resolve_wrapper_opcodes) {
            if (nr == kSysIoctl) {
              record_op(state, disasm::kRsi, info.local.ioctl_ops,
                        IpaPendingSite::Kind::kIoctlOp);
            } else if (nr == kSysFcntl) {
              record_op(state, disasm::kRsi, info.local.fcntl_ops,
                        IpaPendingSite::Kind::kFcntlOp);
            } else if (nr == kSysPrctl) {
              record_op(state, disasm::kRdi, info.local.prctl_ops,
                        IpaPendingSite::Kind::kPrctlOp);
            }
          }
        } else if (ipa != nullptr && rax.is_arg()) {
          defer_site(state, IpaPendingSite::Kind::kSyscallNumber, rax);
        } else {
          ++info.local.unknown_syscall_sites;
          ++analysis.unknown_syscall_sites;
        }
        break;
      }
      case InsnKind::kInt: {
        if ((insn.imm & 0xff) == 0x80) {
          ++info.local.int80_sites;
          ++analysis.total_syscall_sites;
          // The legacy gate takes its number in eax with i386 numbering.
          const AbsVal& rax = state.regs[disasm::kRax];
          if (rax.is_const()) {
            info.local.int80_syscalls.insert(static_cast<int>(rax.value));
          } else if (ipa != nullptr && rax.is_arg()) {
            defer_site(state, IpaPendingSite::Kind::kInt80Number, rax);
          } else {
            ++info.local.unknown_syscall_sites;
            ++analysis.unknown_syscall_sites;
          }
        }
        break;
      }
      case InsnKind::kCallRel32:
      case InsnKind::kJmpRel: {
        auto plt_symbol = image.PltSymbolAt(insn.target);
        if (plt_symbol.has_value()) {
          plt_symbols.push_back(*plt_symbol);
          const std::string& name = image.dynsym()[*plt_symbol].name;
          if (options.resolve_wrapper_opcodes) {
            if (name == "ioctl") {
              record_op(state, disasm::kRsi, info.local.ioctl_ops,
                        IpaPendingSite::Kind::kIoctlOp);
            } else if (name == "fcntl" || name == "fcntl64") {
              record_op(state, disasm::kRsi, info.local.fcntl_ops,
                        IpaPendingSite::Kind::kFcntlOp);
            } else if (name == "prctl") {
              record_op(state, disasm::kRdi, info.local.prctl_ops,
                        IpaPendingSite::Kind::kPrctlOp);
            } else if (name == "syscall") {
              // long syscall(long number, ...): number in rdi.
              ++analysis.total_syscall_sites;
              const AbsVal& rdi = state.regs[disasm::kRdi];
              if (rdi.is_const()) {
                info.local.syscalls.insert(static_cast<int>(rdi.value));
              } else if (ipa != nullptr && rdi.is_arg()) {
                defer_site(state, IpaPendingSite::Kind::kPltSyscallNumber,
                           rdi);
              } else {
                ++info.local.unknown_syscall_sites;
                ++analysis.unknown_syscall_sites;
              }
            }
          }
        } else if (std::binary_search(function_starts.begin(),
                                      function_starts.end(), insn.target)) {
          if (insn.target != info.vaddr) {
            info.local_callees.insert(insn.target);
          }
          if (ipa != nullptr) {
            // Self edges are recorded too: they make the recursion visible
            // to the SCC condensation.
            add_call_edge(state, insn.target);
          }
        }
        break;
      }
      case InsnKind::kCallIndirect:
        if (ipa != nullptr && insn.target != 0) {
          // Rip-relative `call [rip+disp]`: the callee pointer lives at a
          // link-time-constant address. If the slot holds a known function
          // start, the edge is as good as a direct call.
          auto slot = image.DataAtVaddr(insn.target, 8);
          if (slot.size() == 8) {
            uint64_t ptr = 0;
            for (int b = 7; b >= 0; --b) {
              ptr = (ptr << 8) | slot[static_cast<size_t>(b)];
            }
            if (std::binary_search(function_starts.begin(),
                                   function_starts.end(), ptr)) {
              if (ptr != info.vaddr) {
                info.local_callees.insert(ptr);
              }
              add_call_edge(state, ptr);
            }
          }
        }
        ++info.local.indirect_call_sites;
        break;
      case InsnKind::kJmpIndirect:
        ++info.local.indirect_call_sites;
        break;
      default:
        break;
    }
  }
}

// Fills `imports` with the names of the PLT calls in `plt_symbols`
// (dynsym indices, function i's ending at plt_ends[i]), sorted and
// distinct, and each function's plt_calls with ids into it.
void NumberImports(const elf::ElfImage& image,
                   std::vector<uint32_t>& plt_symbols,
                   const std::vector<size_t>& plt_ends,
                   std::vector<FunctionInfo>& functions,
                   PackedStrings& imports) {
  // One entry per distinct dynsym index called. `prefix` holds the name's
  // first 8 bytes big-endian (names hold no NUL), so where two prefixes
  // differ their integer order is the names' order: most comparisons of
  // the name sort below never touch the strings.
  struct Called {
    uint64_t prefix = 0;
    std::string_view name;
    uint32_t symbol = 0;
  };
  constexpr uint32_t kUnseen = 0xffffffffu;
  const std::vector<elf::Symbol>& dynsym = image.dynsym();
  std::vector<uint32_t> id_of(dynsym.size(), kUnseen);
  std::vector<Called> called;
  called.reserve(std::min(plt_symbols.size(), dynsym.size()));
  for (uint32_t symbol : plt_symbols) {
    if (id_of[symbol] == kUnseen) {
      id_of[symbol] = 0;
      Called entry{0, dynsym[symbol].name, symbol};
      for (size_t i = 0; i < 8; ++i) {
        entry.prefix = entry.prefix << 8 |
                       (i < entry.name.size()
                            ? static_cast<uint8_t>(entry.name[i])
                            : 0u);
      }
      called.push_back(entry);
    }
  }
  std::sort(called.begin(), called.end(), [](const Called& a, const Called& b) {
    return a.prefix != b.prefix ? a.prefix < b.prefix : a.name < b.name;
  });
  std::vector<std::string_view> names;
  names.reserve(called.size());
  for (const Called& entry : called) {
    if (names.empty() || names.back() != entry.name) {
      names.push_back(entry.name);
    }
    id_of[entry.symbol] = static_cast<uint32_t>(names.size() - 1);
  }
  imports = PackedStrings(names);
  for (uint32_t& symbol : plt_symbols) {
    symbol = id_of[symbol];
  }
  // Deduplicated first, each function's ids fill its set exactly.
  auto begin = plt_symbols.begin();
  for (size_t i = 0; i < functions.size(); ++i) {
    auto end = plt_symbols.begin() + static_cast<ptrdiff_t>(plt_ends[i]);
    std::sort(begin, end);
    functions[i].plt_calls.insert(begin, std::unique(begin, end));
    begin = end;
  }
}

}  // namespace

Result<BinaryAnalysis> BinaryAnalyzer::Analyze(const elf::ElfImage& image,
                                               const Options& options) {
  BinaryAnalysis analysis;
  analysis.is_executable_ = image.IsExecutable();
  analysis.entry_ = image.entry();
  analysis.needed_ = image.needed();
  analysis.soname_ = image.soname();

  for (const auto* sym : image.ExportedFunctions()) {
    analysis.exports_.push_back(sym->name);
  }

  // ---- Function table from .symtab ----
  std::vector<const elf::Symbol*> funcs = image.DefinedFunctions();
  std::sort(funcs.begin(), funcs.end(),
            [](const elf::Symbol* a, const elf::Symbol* b) {
              return a->value < b->value;
            });
  // `funcs` is sorted by vaddr, so the start list is already in binary-search
  // order (duplicates from aliased symbols are harmless).
  std::vector<uint64_t> function_starts;
  function_starts.reserve(funcs.size());
  for (const auto* sym : funcs) {
    function_starts.push_back(sym->value);
  }

  // The IPA tier needs merge-correct intra-function states to trust an
  // argument fact on every path, so use_ipa implies the dataflow fixpoint.
  const PropagationMode mode = options.use_dataflow || options.use_ipa
                                   ? PropagationMode::kDataflow
                                   : PropagationMode::kLinear;
  RegState entry_state = RegState::AllTop();
  if (options.use_ipa) {
    for (uint8_t reg : kSysVArgRegs) {
      entry_state.regs[reg] = AbsVal::Arg(reg);
    }
  }

  // One set of decode/CFG/dataflow buffers serves every function body; the
  // Into-variants clear but never shrink, so the per-function allocation
  // churn of the old per-iteration locals disappears.
  disasm::SweepResult sweep;
  ControlFlowGraph cfg;
  std::vector<RegState> states;
  DataflowScratch scratch;
  // Every function's PLT call targets as dynsym indices, function i's
  // ending at plt_ends[i], until NumberImports names them.
  std::vector<uint32_t> plt_symbols;
  std::vector<size_t> plt_ends;
  plt_ends.reserve(funcs.size());
  analysis.functions_.reserve(funcs.size());
  std::vector<IpaFunctionFacts> ipa_facts;
  if (options.use_ipa) {
    ipa_facts.reserve(funcs.size());
  }

  for (const auto* sym : funcs) {
    FunctionInfo info;
    info.name = sym->name;
    info.vaddr = sym->value;
    info.size = sym->size;
    if (options.use_ipa) {
      ipa_facts.emplace_back();  // stays parallel even for skipped bodies
    }

    auto body = image.DataAtVaddr(sym->value, sym->size);
    if (body.empty() && sym->size > 0) {
      // Symbol points outside mapped sections: skip but keep the record.
      info.decode_complete = false;
      analysis.functions_.push_back(std::move(info));
      plt_ends.push_back(plt_symbols.size());
      continue;
    }

    disasm::LinearSweepInto(body, sym->value, sweep);
    info.decode_complete = sweep.complete;

    ControlFlowGraph::BuildInto(sweep, cfg);
    info.basic_block_count = cfg.block_count();
    ComputeInsnStatesInto(sweep, cfg, mode, entry_state, scratch, states);
    CollectFunctionFacts(image, options, sweep, states, function_starts,
                         info, analysis, plt_symbols,
                         options.use_ipa ? &ipa_facts.back() : nullptr);

    analysis.functions_.push_back(std::move(info));
    plt_ends.push_back(plt_symbols.size());
  }

  if (options.use_ipa) {
    analysis.unknown_syscall_sites += PropagateInterprocedural(
        ipa_facts, analysis.functions_, analysis.exports_,
        analysis.is_executable_, analysis.entry_,
        std::max(0, options.ipa_max_depth));
  }

  NumberImports(image, plt_symbols, plt_ends, analysis.functions_,
                analysis.imports_);
  analysis.IndexNames();
  return analysis;
}

}  // namespace lapis::analysis
