#include "src/analysis/ipa.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/analysis/footprint.h"
#include "src/disasm/insn.h"

namespace lapis::analysis {

namespace {

// System V argument registers, slot order matching IpaCallEdge::args.
constexpr uint8_t kArgRegs[6] = {disasm::kRdi, disasm::kRsi, disasm::kRdx,
                                 disasm::kRcx, disasm::kR8,  disasm::kR9};

int ArgSlot(uint8_t reg) {
  for (int s = 0; s < 6; ++s) {
    if (kArgRegs[s] == reg) {
      return s;
    }
  }
  return -1;
}

// Rewrites a summary value from the callee's argument space into the
// caller's value space under one call edge's bindings.
AbsVal EvalUnderEdge(const AbsVal& v, const IpaCallEdge& edge) {
  if (!v.is_arg()) {
    return v;
  }
  int slot = ArgSlot(static_cast<uint8_t>(v.value));
  if (slot < 0) {
    return AbsVal::Top();
  }
  return edge.args[slot];
}

bool IsNumberKind(IpaPendingSite::Kind kind) {
  return kind == IpaPendingSite::Kind::kSyscallNumber ||
         kind == IpaPendingSite::Kind::kPltSyscallNumber ||
         kind == IpaPendingSite::Kind::kInt80Number;
}

// A pending site re-exposed in some function's summary: the same global
// site record, with its deciding values rewritten into this function's
// argument space, `depth` wrapper hops away from the original site.
struct Exposure {
  uint32_t site_id = 0;
  AbsVal number;
  AbsVal op_rsi;
  AbsVal op_rdi;
  int depth = 0;
};

// Global per-site resolution state; flags are idempotent so a site that is
// unknown through several call paths is still counted exactly once.
struct SiteRecord {
  uint32_t owner = 0;  // function index owning the instruction
  IpaPendingSite::Kind kind = IpaPendingSite::Kind::kSyscallNumber;
  bool number_unknown = false;  // counts as an unknown syscall site
  bool opcode_unknown = false;  // counts as an unknown opcode site
};

struct Edge {
  uint32_t callee = 0;
  const IpaCallEdge* bind = nullptr;
};

// Iterative Tarjan over the function-index call graph. Emits SCCs in
// completion order — every SCC only after all SCCs it can reach — which is
// exactly the callees-first order the summary pass needs. Deterministic
// given the (index-ordered) adjacency lists.
struct SccResult {
  std::vector<uint32_t> comp;            // node -> SCC id (emission order)
  std::vector<std::vector<uint32_t>> members;  // SCC id -> nodes (pop order)
  std::vector<bool> cyclic;              // SCC id -> nontrivial or self-loop
};

SccResult CondenseSccs(size_t n, const std::vector<std::vector<Edge>>& out) {
  SccResult r;
  r.comp.assign(n, UINT32_MAX);
  std::vector<uint32_t> index(n, UINT32_MAX);
  std::vector<uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<uint32_t> stack;
  struct Frame {
    uint32_t node;
    size_t next_edge;
  };
  std::vector<Frame> frames;
  uint32_t next_index = 0;

  for (uint32_t root = 0; root < n; ++root) {
    if (index[root] != UINT32_MAX) {
      continue;
    }
    frames.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.next_edge < out[f.node].size()) {
        uint32_t w = out[f.node][f.next_edge++].callee;
        if (index[w] == UINT32_MAX) {
          frames.push_back({w, 0});
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
        } else if (on_stack[w]) {
          lowlink[f.node] = std::min(lowlink[f.node], index[w]);
        }
      } else {
        uint32_t v = f.node;
        frames.pop_back();
        if (!frames.empty()) {
          lowlink[frames.back().node] =
              std::min(lowlink[frames.back().node], lowlink[v]);
        }
        if (lowlink[v] == index[v]) {
          uint32_t id = static_cast<uint32_t>(r.members.size());
          r.members.emplace_back();
          uint32_t w;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            r.comp[w] = id;
            r.members[id].push_back(w);
          } while (w != v);
          bool self_loop = false;
          if (r.members[id].size() == 1) {
            for (const Edge& e : out[v]) {
              if (e.callee == v) {
                self_loop = true;
                break;
              }
            }
          }
          r.cyclic.push_back(r.members[id].size() > 1 || self_loop);
        }
      }
    }
  }
  return r;
}

}  // namespace

int PropagateInterprocedural(const std::vector<IpaFunctionFacts>& facts,
                             std::vector<FunctionInfo>& functions,
                             const std::vector<std::string>& exports,
                             bool is_executable, uint64_t entry_vaddr,
                             int max_depth) {
  const size_t n = functions.size();

  // `functions` is sorted by vaddr: the first definition of a vaddr wins,
  // as in BinaryAnalysis::FunctionAt.
  std::vector<std::vector<Edge>> out(n);
  std::vector<uint32_t> in_degree(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    for (const IpaCallEdge& e : facts[i].edges) {
      auto it = std::lower_bound(
          functions.begin(), functions.end(), e.callee_vaddr,
          [](const FunctionInfo& fn, uint64_t v) { return fn.vaddr < v; });
      if (it == functions.end() || it->vaddr != e.callee_vaddr) {
        continue;
      }
      const auto callee = static_cast<uint32_t>(it - functions.begin());
      out[i].push_back({callee, &e});
      ++in_degree[callee];
    }
  }

  // Global site records, in (function, site) collection order.
  std::vector<SiteRecord> sites;
  std::vector<uint32_t> first_site(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    first_site[i] = static_cast<uint32_t>(sites.size());
    for (const IpaPendingSite& s : facts[i].sites) {
      SiteRecord rec;
      rec.owner = i;
      rec.kind = s.kind;
      sites.push_back(rec);
    }
  }

  SccResult scc = CondenseSccs(n, out);

  // Attributes a resolved vectored opcode (or its absence) at the caller.
  auto attach_op = [](const AbsVal& op, SortedSet<uint32_t>& ops,
                      SiteRecord& rec) {
    if (op.is_const()) {
      ops.insert(static_cast<uint32_t>(op.value));
    } else {
      rec.opcode_unknown = true;
    }
  };

  std::vector<std::vector<Exposure>> summary(n);
  for (uint32_t id = 0; id < scc.members.size(); ++id) {
    const bool cyclic = scc.cyclic[id];
    for (uint32_t f : scc.members[id]) {
      if (cyclic) {
        // ⊤ at recursion: the function's own deferred sites are unknown
        // and nothing propagates through it.
        for (size_t j = 0; j < facts[f].sites.size(); ++j) {
          SiteRecord& rec = sites[first_site[f] + j];
          if (IsNumberKind(rec.kind)) {
            rec.number_unknown = true;
          } else {
            rec.opcode_unknown = true;
          }
        }
      } else {
        for (size_t j = 0; j < facts[f].sites.size(); ++j) {
          const IpaPendingSite& s = facts[f].sites[j];
          summary[f].push_back(Exposure{first_site[f] + static_cast<uint32_t>(j),
                                        s.number, s.op_rsi, s.op_rdi, 0});
        }
      }
      for (const Edge& e : out[f]) {
        if (scc.comp[e.callee] == id) {
          continue;  // SCC-internal edge: the callee's sites are already ⊤'d
        }
        for (const Exposure& x : summary[e.callee]) {
          SiteRecord& rec = sites[x.site_id];
          AbsVal number = EvalUnderEdge(x.number, *e.bind);
          AbsVal rsi = EvalUnderEdge(x.op_rsi, *e.bind);
          AbsVal rdi = EvalUnderEdge(x.op_rdi, *e.bind);
          Footprint& fp = functions[f].local;
          if (IsNumberKind(rec.kind)) {
            if (number.is_const()) {
              int nr = static_cast<int>(number.value);
              if (rec.kind == IpaPendingSite::Kind::kInt80Number) {
                fp.int80_syscalls.insert(nr);
              } else {
                fp.syscalls.insert(nr);
              }
              if (rec.kind == IpaPendingSite::Kind::kSyscallNumber) {
                // The number pins a vectored family: the opcode must be
                // decided here too (no further re-exposure for the mixed
                // const-number/argument-opcode case — sound, just counted).
                if (nr == kSysIoctl) {
                  attach_op(rsi, fp.ioctl_ops, rec);
                } else if (nr == kSysFcntl) {
                  attach_op(rsi, fp.fcntl_ops, rec);
                } else if (nr == kSysPrctl) {
                  attach_op(rdi, fp.prctl_ops, rec);
                }
              }
            } else if (number.is_arg() && !cyclic && x.depth + 1 <= max_depth) {
              summary[f].push_back(
                  Exposure{x.site_id, number, rsi, rdi, x.depth + 1});
            } else {
              rec.number_unknown = true;
            }
          } else {
            const AbsVal& op =
                rec.kind == IpaPendingSite::Kind::kPrctlOp ? rdi : rsi;
            if (op.is_const()) {
              uint32_t code = static_cast<uint32_t>(op.value);
              if (rec.kind == IpaPendingSite::Kind::kIoctlOp) {
                fp.ioctl_ops.insert(code);
              } else if (rec.kind == IpaPendingSite::Kind::kFcntlOp) {
                fp.fcntl_ops.insert(code);
              } else {
                fp.prctl_ops.insert(code);
              }
            } else if (op.is_arg() && !cyclic && x.depth + 1 <= max_depth) {
              summary[f].push_back(
                  Exposure{x.site_id, number, rsi, rdi, x.depth + 1});
            } else {
              rec.opcode_unknown = true;
            }
          }
        }
      }
    }
  }

  // Sites still exposed where external callers can enter (or nobody calls
  // at all) stay unknown: the constant, if any, lives outside this binary.
  std::set<std::string> exported(exports.begin(), exports.end());
  for (uint32_t f = 0; f < n; ++f) {
    if (summary[f].empty()) {
      continue;
    }
    const bool open_to_outside =
        in_degree[f] == 0 || exported.contains(functions[f].name) ||
        (is_executable && functions[f].vaddr == entry_vaddr);
    if (!open_to_outside) {
      continue;
    }
    for (const Exposure& x : summary[f]) {
      SiteRecord& rec = sites[x.site_id];
      if (IsNumberKind(rec.kind)) {
        rec.number_unknown = true;
      } else {
        rec.opcode_unknown = true;
      }
    }
  }

  // Fold the per-site verdicts into the owners' footprints exactly once.
  int unknown_syscall_sites = 0;
  for (const SiteRecord& rec : sites) {
    Footprint& fp = functions[rec.owner].local;
    if (IsNumberKind(rec.kind) && rec.number_unknown) {
      ++fp.unknown_syscall_sites;
      ++unknown_syscall_sites;
    }
    if (rec.opcode_unknown) {
      ++fp.unknown_opcode_sites;
    }
  }
  return unknown_syscall_sites;
}

}  // namespace lapis::analysis
