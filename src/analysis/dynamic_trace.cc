#include "src/analysis/dynamic_trace.h"

#include <vector>

#include "src/disasm/decoder.h"
#include "src/util/strings.h"

namespace lapis::analysis {

namespace {

using disasm::Insn;
using disasm::InsnKind;

// A concrete-or-unknown register value, tagged with the image its address
// points into (each ET_DYN library has its own address space at base 0).
struct Val {
  bool known = false;
  int64_t value = 0;
  const elf::ElfImage* space = nullptr;
};

struct Machine {
  Val regs[16];

  void ClobberCallerSaved() {
    static constexpr uint8_t kVolatile[] = {0, 1, 2, 6, 7, 8, 9, 10, 11};
    for (uint8_t r : kVolatile) {
      regs[r] = Val{};
    }
  }
};

// Reads the pseudo path a register points to, if any.
void MaybeRecordPath(const Val& reg, Footprint& observed) {
  if (!reg.known || reg.space == nullptr) {
    return;
  }
  auto s = reg.space->CStringAtVaddr(static_cast<uint64_t>(reg.value));
  if (s.has_value() && lapis::IsPseudoFilePath(*s)) {
    observed.pseudo_paths.insert(lapis::CanonicalizePseudoPath(*s));
  }
}

}  // namespace

Status DynamicTracer::AddLibrary(
    std::shared_ptr<const elf::ElfImage> library) {
  if (library == nullptr || !library->IsSharedLibrary()) {
    return InvalidArgumentError("tracer libraries must be shared objects");
  }
  for (const auto* symbol : library->ExportedFunctions()) {
    exports_.emplace(symbol->name,
                     ExportSite{library.get(), symbol->value});
  }
  libraries_.push_back(std::move(library));
  return Status::Ok();
}

Result<TraceResult> DynamicTracer::Trace(
    const elf::ElfImage& executable) const {
  if (!executable.IsExecutable()) {
    return InvalidArgumentError("tracer entry point must be an executable");
  }
  TraceResult result;
  Machine machine;

  struct Frame {
    const elf::ElfImage* image;
    uint64_t return_vaddr;
  };
  std::vector<Frame> stack;
  const elf::ElfImage* image = &executable;
  uint64_t pc = executable.entry();

  // Returns from the current frame; false if the call stack is empty.
  auto do_return = [&]() {
    if (stack.empty()) {
      return false;
    }
    image = stack.back().image;
    pc = stack.back().return_vaddr;
    stack.pop_back();
    return true;
  };

  // Handles a call/jump that resolved to the imported symbol `name`:
  // either transfers control into a registered library or simulates a
  // stub. `is_call` distinguishes call sites from PLT trampoline jumps.
  auto enter_import = [&](const std::string& name, uint64_t return_vaddr,
                          bool is_call) {
    auto target = exports_.find(name);
    if (target != exports_.end()) {
      if (is_call) {
        stack.push_back(Frame{image, return_vaddr});
      }
      ++result.calls_followed;
      image = target->second.image;
      pc = target->second.vaddr;
      return true;
    }
    // Unresolved: simulate a stub with the static analyzer's semantics for
    // the syscall-family wrappers, then return to the caller.
    result.stubbed_imports.insert(name);
    if (name == "ioctl" && machine.regs[disasm::kRsi].known) {
      result.observed.ioctl_ops.insert(
          static_cast<uint32_t>(machine.regs[disasm::kRsi].value));
    } else if ((name == "fcntl" || name == "fcntl64") &&
               machine.regs[disasm::kRsi].known) {
      result.observed.fcntl_ops.insert(
          static_cast<uint32_t>(machine.regs[disasm::kRsi].value));
    } else if (name == "prctl" && machine.regs[disasm::kRdi].known) {
      result.observed.prctl_ops.insert(
          static_cast<uint32_t>(machine.regs[disasm::kRdi].value));
    } else if (name == "syscall" && machine.regs[disasm::kRdi].known) {
      result.observed.syscalls.insert(
          static_cast<int>(machine.regs[disasm::kRdi].value));
    } else if (name == "open" || name == "fopen") {
      MaybeRecordPath(machine.regs[disasm::kRdi], result.observed);
    } else if (name == "sprintf") {
      MaybeRecordPath(machine.regs[disasm::kRsi], result.observed);
    }
    machine.ClobberCallerSaved();
    machine.regs[disasm::kRax] = Val{true, 0, nullptr};  // stub returns 0
    if (is_call) {
      pc = return_vaddr;
      return true;
    }
    return do_return();  // jmp into a stub: unwind to the caller
  };

  while (result.instructions_executed < step_limit_) {
    auto bytes = image->SpanFrom(pc);
    if (bytes.empty()) {
      return InternalError("trace fell off mapped sections");
    }
    auto decoded = disasm::DecodeOne(bytes, pc);
    if (!decoded.ok()) {
      return InternalError("trace hit undecodable bytes: " +
                           decoded.status().message());
    }
    const Insn& insn = decoded.value();
    ++result.instructions_executed;
    uint64_t next = pc + insn.length;
    bool advance = true;

    switch (insn.kind) {
      case InsnKind::kMovRegImm:
        machine.regs[insn.reg] = Val{true, insn.imm, nullptr};
        break;
      case InsnKind::kXorRegReg:
        machine.regs[insn.reg] = Val{true, 0, nullptr};
        break;
      case InsnKind::kMovRegReg:
        machine.regs[insn.reg] = machine.regs[insn.reg2];
        break;
      case InsnKind::kLeaRipRel:
        machine.regs[insn.reg] =
            Val{true, static_cast<int64_t>(insn.target), image};
        break;
      case InsnKind::kSyscall:
      case InsnKind::kSysenter: {
        const Val& rax = machine.regs[disasm::kRax];
        if (!rax.known) {
          ++result.observed.unknown_syscall_sites;
          break;
        }
        int nr = static_cast<int>(rax.value);
        result.observed.syscalls.insert(nr);
        auto record_op = [&](uint8_t reg, SortedSet<uint32_t>& ops) {
          if (machine.regs[reg].known) {
            ops.insert(static_cast<uint32_t>(machine.regs[reg].value));
          }
        };
        if (nr == kSysIoctl) {
          record_op(disasm::kRsi, result.observed.ioctl_ops);
        } else if (nr == kSysFcntl) {
          record_op(disasm::kRsi, result.observed.fcntl_ops);
        } else if (nr == kSysPrctl) {
          record_op(disasm::kRdi, result.observed.prctl_ops);
        } else if (nr == 2 /* open */) {
          MaybeRecordPath(machine.regs[disasm::kRdi], result.observed);
        } else if (nr == 257 /* openat */) {
          MaybeRecordPath(machine.regs[disasm::kRsi], result.observed);
        }
        // The kernel clobbers rax (return value) and rcx/r11.
        machine.regs[disasm::kRax] = Val{true, 0, nullptr};
        machine.regs[disasm::kRcx] = Val{};
        machine.regs[disasm::kR11] = Val{};
        break;
      }
      case InsnKind::kInt:
        if ((insn.imm & 0xff) == 0x80) {
          ++result.observed.int80_sites;
          if (machine.regs[disasm::kRax].known) {
            result.observed.int80_syscalls.insert(
                static_cast<int>(machine.regs[disasm::kRax].value));
          }
          machine.regs[disasm::kRax] = Val{true, 0, nullptr};
        }
        break;
      case InsnKind::kCallRel32: {
        auto plt_symbol = image->PltSymbolAt(insn.target);
        if (plt_symbol.has_value()) {
          if (!enter_import(image->dynsym()[*plt_symbol].name, next,
                            /*is_call=*/true)) {
            return result;
          }
        } else {
          stack.push_back(Frame{image, next});
          ++result.calls_followed;
          pc = insn.target;
        }
        advance = false;
        break;
      }
      case InsnKind::kJmpRel: {
        auto plt_symbol = image->PltSymbolAt(insn.target);
        if (plt_symbol.has_value()) {
          if (!enter_import(image->dynsym()[*plt_symbol].name, next,
                            /*is_call=*/false)) {
            return result;
          }
        } else {
          pc = insn.target;
        }
        advance = false;
        break;
      }
      case InsnKind::kJccRel:
        // Generated code carries no conditional control flow that changes
        // API behaviour; take the fall-through path.
        break;
      case InsnKind::kJmpIndirect: {
        // A PLT trampoline: `jmp *[rip + got]`. Resolve by stub address.
        auto plt_symbol = image->PltSymbolAt(insn.vaddr);
        if (!plt_symbol.has_value()) {
          return result;  // unknown indirect target: halt this path
        }
        if (!enter_import(image->dynsym()[*plt_symbol].name, 0,
                          /*is_call=*/false)) {
          return result;
        }
        advance = false;
        break;
      }
      case InsnKind::kCallIndirect:
        ++result.observed.indirect_call_sites;
        machine.ClobberCallerSaved();
        break;
      case InsnKind::kRet:
        if (!do_return()) {
          return result;  // returned from _start: program exit
        }
        advance = false;
        break;
      case InsnKind::kNop:
        break;
      case InsnKind::kOther:
        // Unmodeled instruction (e.g. the obfuscated `add eax, imm`):
        // conservatively forget rax, mirroring the static analyzer.
        machine.regs[disasm::kRax] = Val{};
        break;
    }
    if (advance) {
      pc = next;
    }
  }
  result.hit_step_limit = true;
  return result;
}

}  // namespace lapis::analysis
