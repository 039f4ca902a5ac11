#include "src/corpus/distro_spec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/corpus/api_universe.h"
#include "src/corpus/syscall_table.h"
#include "src/util/prng.h"

namespace lapis::corpus {

namespace {

// Fig 3 anchor curve: weighted completeness reached once the N most
// important syscalls are supported. Slightly pre-compensated upward in the
// middle because tail-carrier packages (unsupported until ranks >224)
// depress the measured curve by their combined weight (~2-4%).
struct CurvePoint {
  double n;
  double wc;
};
constexpr CurvePoint kFig3Curve[] = {
    {40.0, 0.011}, {81.0, 0.125}, {125.0, 0.30}, {145.0, 0.57},
    {202.0, 0.95}, {224.0, 0.995},
};

// K = G^{-1}(u) over a corrected curve: u is the weighted quantile among
// ELF packages only (0 = least popular mass, 1 = full mass).
int CurveInverse(const std::vector<CurvePoint>& curve, double u) {
  if (curve.empty() || u <= curve[0].wc) {
    return curve.empty() ? 40 : static_cast<int>(curve[0].n);
  }
  for (size_t i = 1; i < curve.size(); ++i) {
    if (u <= curve[i].wc) {
      const CurvePoint& a = curve[i - 1];
      const CurvePoint& b = curve[i];
      if (b.wc <= a.wc) {
        return static_cast<int>(b.n);
      }
      double t = (u - a.wc) / (b.wc - a.wc);
      return static_cast<int>(a.n + t * (b.n - a.n));
    }
  }
  return 224;
}

// Zipf exponent for app-package popularity (0.8 concentrates ~56% of the
// installation weight in the top 10% of packages, matching the joint
// Fig 3 / Fig 8 anchor solution; see DESIGN.md).
constexpr double kZipfS = 0.8;
// The most popular app package's install probability.
constexpr double kZipfScale = 0.9;

constexpr int kBaseRankCount = 40;
constexpr int kTierBEnd = 224;     // ranks 1..224 have 100% importance
constexpr size_t kTailCount = 96;  // 320 - 224

// Essential (marginal 1.0) packages beyond the core libraries.
constexpr const char* kEssentialNames[] = {
    "coreutils",  "util-linux", "grep-core",   "sed-core",
    "findutils",  "tar-core",   "gzip-core",   "procps",
    "apt-core",   "hostname-core", "init-system", "mount-tools",
};

// Interpreter packages: name, marginal, prefix rank K, Fig 1 script share.
struct InterpreterSpec {
  const char* package;
  package::ProgramKind kind;
  double marginal;
  int prefix_rank;
  double script_share;  // fraction of all script programs
};
constexpr InterpreterSpec kInterpreters[] = {
    {"dash-shell", package::ProgramKind::kShellDash, 1.0, 120, 0.41},
    {"python-core", package::ProgramKind::kPython, 0.93, 168, 0.25},
    {"perl-core", package::ProgramKind::kPerl, 0.95, 165, 0.21},
    {"bash-shell", package::ProgramKind::kShellBash, 1.0, 150, 0.15},
    {"ruby-core", package::ProgramKind::kRuby, 0.25, 170, 0.033},
    {"tcl-core", package::ProgramKind::kOtherInterpreted, 0.30, 140, 0.042},
};

// Tail syscalls beyond the anchored/planned ones, filling the 96-slot tail.
// Roughly ordered from "used by a handful of packages" to "nearly nobody".
constexpr const char* kTailFillers[] = {
    "io_setup", "io_destroy", "io_submit", "io_cancel", "readahead",
    "sync_file_range", "vmsplice", "tee", "migrate_pages", "set_mempolicy",
    "get_mempolicy", "fanotify_init", "fanotify_mark", "name_to_handle_at",
    "open_by_handle_at", "setns", "process_vm_readv", "process_vm_writev",
    "kcmp", "finit_module", "perf_event_open", "getrandom", "memfd_create",
    "modify_ldt", "ustat", "personality", "acct", "swapon", "swapoff",
    "ioprio_set", "ioprio_get", "signalfd", "eventfd", "semtimedop",
    "timer_getoverrun", "_sysctl", "getpmsg", "rt_sigqueueinfo",
    "epoll_create", "futimesat", "utimensat", "mknodat", "linkat",
    "symlinkat", "lchown", "creat", "getsid", "setfsuid", "setfsgid",
    "vhangup", "pivot_root",
};

}  // namespace

std::set<int> DistroSpec::ExpectedSyscalls(size_t package_index) const {
  const PackagePlan& plan = packages[package_index];
  std::set<int> out;
  if (plan.data_only) {
    return out;
  }
  if (!plan.interpreter_package.empty()) {
    auto it = by_name.find(plan.interpreter_package);
    if (it != by_name.end()) {
      return ExpectedSyscalls(it->second);
    }
    return out;
  }
  for (int i = 0; i < plan.syscall_prefix_rank &&
                  i < static_cast<int>(syscall_rank_order.size());
       ++i) {
    out.insert(syscall_rank_order[static_cast<size_t>(i)]);
  }
  out.insert(plan.extra_syscalls.begin(), plan.extra_syscalls.end());
  // Vectored-opcode call sites go through the ioctl/fcntl/prctl wrappers,
  // pulling the vectored syscall itself into the footprint.
  if (!plan.static_binary) {
    if (!plan.ioctl_ranks.empty()) {
      out.insert(*SyscallNumber("ioctl"));
    }
    if (!plan.fcntl_ranks.empty()) {
      out.insert(*SyscallNumber("fcntl"));
    }
    if (!plan.prctl_ranks.empty()) {
      out.insert(*SyscallNumber("prctl"));
    }
  }
  return out;
}

int DistroSpec::RankOf(int syscall_nr) const {
  for (size_t i = 0; i < syscall_rank_order.size(); ++i) {
    if (syscall_rank_order[i] == syscall_nr) {
      return static_cast<int>(i) + 1;
    }
  }
  return -1;
}

Result<DistroSpec> BuildDistroSpec(const DistroOptions& options) {
  if (options.app_package_count < 300) {
    return InvalidArgumentError("need at least 300 app packages");
  }
  DistroSpec spec;
  spec.options = options;
  Prng prng(options.seed);

  // ---------------------------------------------------------------------
  // 1. Partition the 320 syscalls: base-40, tier-B (ranks 41..224), tail.
  // ---------------------------------------------------------------------
  std::set<int> base(StartupSyscalls().begin(), StartupSyscalls().end());
  if (base.size() != kBaseRankCount) {
    return InternalError("startup set must have exactly 40 syscalls");
  }
  std::set<int> tail;
  for (int nr : UnusedSyscalls()) {
    tail.insert(nr);
  }
  for (int nr : RetiredButAttemptedSyscalls()) {
    tail.insert(nr);
  }
  for (const auto& plan : TailSyscallPlans()) {
    tail.insert(plan.syscall_nr);
  }
  // Anchors used by fewer than ~1% of packages are realized through
  // dedicated rare carriers (their weighted importance stays below 10%);
  // anchors above that live inside tier B, where one ubiquitous package
  // keeps their weighted importance at 100% while the emergent prefix
  // distribution reproduces their published unweighted value.
  for (const auto& anchor : UnweightedAnchors()) {
    if (anchor.unweighted_importance < 0.01 &&
        !base.contains(anchor.syscall_nr)) {
      tail.insert(anchor.syscall_nr);
    }
  }
  for (const char* name : kTailFillers) {
    if (tail.size() >= kTailCount) {
      break;
    }
    auto nr = SyscallNumber(name);
    if (nr.has_value() && !base.contains(*nr)) {
      tail.insert(*nr);
    }
  }
  // If fillers were insufficient, extend with the highest-numbered
  // non-base syscalls not already in the tail.
  for (int nr = kSyscallCount - 1; nr >= 0 && tail.size() < kTailCount;
       --nr) {
    if (!base.contains(nr)) {
      tail.insert(nr);
    }
  }
  while (tail.size() > kTailCount) {
    // Trim from the filler end (never the planned/unused entries).
    bool trimmed = false;
    for (auto it = tail.rbegin(); it != tail.rend(); ++it) {
      bool protected_entry = false;
      for (int nr : UnusedSyscalls()) {
        protected_entry |= nr == *it;
      }
      for (const auto& plan : TailSyscallPlans()) {
        protected_entry |= plan.syscall_nr == *it;
      }
      if (!protected_entry) {
        tail.erase(std::next(it).base());
        trimmed = true;
        break;
      }
    }
    if (!trimmed) {
      return InternalError("cannot trim tail to 96 syscalls");
    }
  }

  std::vector<int> tier_b;
  for (int nr = 0; nr < kSyscallCount; ++nr) {
    if (!base.contains(nr) && !tail.contains(nr)) {
      tier_b.push_back(nr);
    }
  }
  if (tier_b.size() != static_cast<size_t>(kTierBEnd - kBaseRankCount)) {
    return InternalError("tier-B must have exactly 184 syscalls, got " +
                         std::to_string(tier_b.size()));
  }

  // ---------------------------------------------------------------------
  // 2. Create packages with target marginals.
  // ---------------------------------------------------------------------
  auto add_package = [&spec](PackagePlan plan) -> size_t {
    size_t index = spec.packages.size();
    spec.by_name.emplace(plan.name, index);
    spec.packages.push_back(std::move(plan));
    return index;
  };

  // Core: libc6 ships libc.so.6 / ld.so / libpthread / librt + ldconfig.
  {
    PackagePlan core;
    core.name = "libc6";
    core.target_marginal = 1.0;
    core.is_essential = true;
    core.syscall_prefix_rank = kBaseRankCount;
    core.exe_count = 1;
    core.lib_count = 0;  // the four core libraries are synthesized specially
    add_package(std::move(core));
  }

  // Interpreters.
  for (const auto& interp : kInterpreters) {
    PackagePlan plan;
    plan.name = interp.package;
    plan.kind = package::ProgramKind::kElf;  // the interpreter binary is ELF
    plan.target_marginal = interp.marginal;
    plan.is_essential = interp.marginal >= 1.0;
    plan.syscall_prefix_rank = interp.prefix_rank;
    plan.exe_count = 1;
    plan.lib_count = 1;
    plan.depends = {"libc6"};
    add_package(std::move(plan));
  }

  // Essentials.
  for (const char* name : kEssentialNames) {
    PackagePlan plan;
    plan.name = name;
    plan.target_marginal = 1.0;
    plan.is_essential = true;
    plan.exe_count = 2;
    plan.lib_count = 0;
    plan.depends = {"libc6"};
    add_package(std::move(plan));
  }

  // App packages (Zipf popularity).
  std::vector<size_t> app_indexes;
  for (size_t i = 0; i < options.app_package_count; ++i) {
    PackagePlan plan;
    char name[32];
    std::snprintf(name, sizeof(name), "app-%04zu", i);
    plan.name = name;
    double p = kZipfScale / std::pow(static_cast<double>(i + 1), kZipfS);
    plan.target_marginal = std::max(0.0006, std::min(0.95, p));
    // Fig 1: shared libraries outnumber executables 52% / 48% among ELF
    // binaries.
    plan.exe_count = 1 + static_cast<int>(prng.NextBelow(2));
    plan.lib_count = 1 + static_cast<int>(prng.NextBelow(2));
    plan.depends = {"libc6"};
    plan.emits_direct_syscalls = prng.NextBool(0.11);
    plan.emits_obfuscated_site = prng.NextBool(0.04);
    app_indexes.push_back(add_package(std::move(plan)));
  }
  // Branch-guarded syscall sites, drawn from a forked generator so every
  // other plan draw (and therefore the rest of the corpus) is identical
  // with or without them. The guarded number is the rank-1 syscall, already
  // in every prefix footprint: only the unknown-site counters move between
  // analysis modes, never the recovered sets.
  {
    Prng guard_prng(options.seed ^ 0x6a63635f67726448ULL);
    for (size_t index : app_indexes) {
      if (guard_prng.NextBool(0.30)) {
        spec.packages[index].guarded_syscall_sites =
            1 + static_cast<int>(guard_prng.NextBelow(2));
      }
    }
  }
  // Wrapper-style sites only the interprocedural tier recovers, from a
  // second forked generator for the same reason. Drawn unconditionally here
  // (prefix ranks and ioctl assignments happen later); the synthesizer
  // skips the emission when a package lacks the prefix syscall or assigned
  // ioctl opcode the wrapper would forward.
  {
    Prng wrapper_prng(options.seed ^ 0x6970615f77726170ULL);
    for (size_t index : app_indexes) {
      PackagePlan& plan = spec.packages[index];
      if (wrapper_prng.NextBool(0.30)) {
        plan.wrapper_syscall_calls =
            1 + static_cast<int>(wrapper_prng.NextBelow(2));
        plan.wrapper_tail_plt = wrapper_prng.NextBool(0.40);
        plan.wrapper_guarded = wrapper_prng.NextBool(0.35);
      }
      plan.wrapper_two_hop_ioctl = wrapper_prng.NextBool(0.25);
    }
  }

  // Static-binary packages (paper: 0.38% of ELF binaries are static). A
  // couple are pre-x86-64 relics still using the int $0x80 gate.
  for (size_t i = 0; i < 12; ++i) {
    PackagePlan plan;
    char name[32];
    std::snprintf(name, sizeof(name), "static-tool-%02zu", i);
    plan.name = name;
    plan.target_marginal = 0.002 + 0.004 * prng.NextDouble();
    plan.static_binary = true;
    plan.legacy_int80 = i < 2;
    plan.exe_count = 1;
    add_package(std::move(plan));
  }

  // Script packages.
  {
    // Distribute across interpreters by Fig 1 share.
    size_t created = 0;
    for (const auto& interp : kInterpreters) {
      size_t count = static_cast<size_t>(
          interp.script_share * static_cast<double>(options.script_package_count) + 0.5);
      for (size_t i = 0; i < count && created < options.script_package_count;
           ++i, ++created) {
        PackagePlan plan;
        char name[48];
        std::snprintf(name, sizeof(name), "script-%s-%03zu",
                      interp.package, i);
        plan.name = name;
        plan.kind = interp.kind;
        plan.target_marginal =
            std::max(0.0006, 0.25 / std::pow(static_cast<double>(created + 2),
                                             kZipfS));
        plan.script_count = 4 + prng.NextBelow(14);
        plan.interpreter_package = interp.package;
        plan.depends = {interp.package};
        add_package(std::move(plan));
      }
    }
  }

  // Data-only packages (fonts, docs): the ~1% raw-completeness floor in
  // Table 7 comes from these.
  for (size_t i = 0; i < options.data_package_count; ++i) {
    PackagePlan plan;
    char name[32];
    std::snprintf(name, sizeof(name), "data-%03zu", i);
    plan.name = name;
    plan.target_marginal =
        std::max(0.0006, 0.3 / std::pow(static_cast<double>(i + 3), 1.1));
    plan.data_only = true;
    add_package(std::move(plan));
  }

  // Dedicated tail-carrier packages from the paper's Tables 1-2.
  for (const auto& plan_entry : TailSyscallPlans()) {
    size_t m = plan_entry.packages.size();
    double per_package =
        1.0 - std::pow(1.0 - plan_entry.weighted_importance,
                       1.0 / static_cast<double>(m));
    for (const auto& pkg_name : plan_entry.packages) {
      auto it = spec.by_name.find(pkg_name);
      size_t index;
      if (it == spec.by_name.end()) {
        PackagePlan plan;
        plan.name = pkg_name;
        plan.target_marginal = std::max(0.002, per_package);
        plan.exe_count = 1;
        plan.lib_count = plan_entry.via_library ? 1 : 0;
        plan.depends = {"libc6"};
        index = add_package(std::move(plan));
      } else {
        index = it->second;
      }
      spec.packages[index].extra_syscalls.push_back(plan_entry.syscall_nr);
      spec.packages[index].extras_via_library |= plan_entry.via_library;
    }
  }

  // ---------------------------------------------------------------------
  // 3. Assign prefix ranks K by inverting the Fig 3 curve against the
  //    weighted quantile of each package.
  // ---------------------------------------------------------------------
  {
    struct Weighted {
      size_t index;
      double weight;
    };
    std::vector<Weighted> ordered;
    double total_weight = 0.0;
    double data_weight = 0.0;
    double elf_weight = 0.0;
    // Script mass activates at the interpreter's K; collect (K, weight).
    std::vector<std::pair<int, double>> script_mass;
    for (size_t i = 0; i < spec.packages.size(); ++i) {
      const PackagePlan& plan = spec.packages[i];
      total_weight += plan.target_marginal;
      if (plan.data_only) {
        data_weight += plan.target_marginal;
        continue;
      }
      if (!plan.interpreter_package.empty()) {
        auto it = spec.by_name.find(plan.interpreter_package);
        script_mass.emplace_back(
            spec.packages[it->second].syscall_prefix_rank,
            plan.target_marginal);
        continue;
      }
      elf_weight += plan.target_marginal;
      ordered.push_back(Weighted{i, plan.target_marginal});
    }
    // The paper's Fig 3 curve covers ALL packages. Data packages are mass
    // at N=0 (always supported); script packages are mass at their
    // interpreter's K. Subtract both to get the target curve for the ELF
    // packages whose K we are free to choose:
    //   G_elf(N) = (G_paper(N) * W - data_w - script_w(K<=N)) / elf_w
    std::vector<CurvePoint> curve;
    for (const CurvePoint& point : kFig3Curve) {
      double script_below = 0.0;
      for (const auto& [k, w] : script_mass) {
        if (static_cast<double>(k) <= point.n) {
          script_below += w;
        }
      }
      double target =
          (point.wc * total_weight - data_weight - script_below) /
          std::max(elf_weight, 1e-9);
      target = std::max(0.0, std::min(1.0, target));
      if (!curve.empty() && target < curve.back().wc) {
        target = curve.back().wc;  // keep monotone
      }
      curve.push_back(CurvePoint{point.n, target});
    }

    std::stable_sort(ordered.begin(), ordered.end(),
                     [&spec](const Weighted& a, const Weighted& b) {
                       if (a.weight != b.weight) {
                         return a.weight > b.weight;
                       }
                       return spec.packages[a.index].name <
                              spec.packages[b.index].name;
                     });
    double cumulative = 0.0;
    for (const Weighted& entry : ordered) {
      double u = 1.0 - (cumulative + entry.weight * 0.5) /
                           std::max(elf_weight, 1e-9);
      cumulative += entry.weight;
      PackagePlan& plan = spec.packages[entry.index];
      if (plan.syscall_prefix_rank != 0) {
        continue;  // fixed (core, interpreters)
      }
      plan.syscall_prefix_rank = CurveInverse(curve, u);
    }
    // Guarantee full tier-B coverage for Fig 2's "224 syscalls at 100%".
    auto coreutils = spec.by_name.find("coreutils");
    if (coreutils != spec.by_name.end()) {
      spec.packages[coreutils->second].syscall_prefix_rank = kTierBEnd;
    }
  }

  // ---------------------------------------------------------------------
  // 4. Order tier-B ranks so the anchored syscalls land where the emergent
  //    unweighted curve matches their published values.
  // ---------------------------------------------------------------------
  {
    // Emergent package-count curve: how many packages use rank r?
    // ELF packages: K >= r; script packages: interpreter K >= r.
    size_t countable = 0;
    std::vector<size_t> users(kTierBEnd + 1, 0);
    for (const auto& plan : spec.packages) {
      int k = plan.syscall_prefix_rank;
      if (!plan.interpreter_package.empty()) {
        auto it = spec.by_name.find(plan.interpreter_package);
        k = spec.packages[it->second].syscall_prefix_rank;
      }
      if (plan.data_only) {
        k = 0;
      }
      ++countable;
      for (int r = 1; r <= k && r <= kTierBEnd; ++r) {
        ++users[static_cast<size_t>(r)];
      }
    }
    size_t total_packages = spec.packages.size();
    auto share_at = [&](int rank) {
      return static_cast<double>(users[static_cast<size_t>(rank)]) /
             static_cast<double>(total_packages);
    };
    (void)countable;

    // Reserve ranks 221..224 for the Table 1 libc-only four.
    std::vector<int> rank_slots(tier_b.size(), -1);  // index 0 == rank 41
    auto slot_of_rank = [](int rank) { return rank - kBaseRankCount - 1; };
    std::set<int> placed;
    // Pinned ranks (Table 6 system-evaluation gaps).
    for (const auto& pin : PinnedRanks()) {
      if (pin.rank > kBaseRankCount && pin.rank <= kTierBEnd &&
          std::find(tier_b.begin(), tier_b.end(), pin.syscall_nr) !=
              tier_b.end()) {
        rank_slots[static_cast<size_t>(slot_of_rank(pin.rank))] =
            pin.syscall_nr;
        placed.insert(pin.syscall_nr);
      }
    }
    // The Table 1 libc-only four sit late in tier B (few packages use them,
    // but at least one ubiquitous one does). Their exact ranks drive the
    // UML row of Table 6: UML misses iopl/ioperm and lands at ~93%.
    const char* special4[] = {"clock_settime", "iopl", "ioperm", "signalfd4"};
    int special_rank = 204;
    for (const char* name : special4) {
      auto nr = SyscallNumber(name);
      if (nr.has_value() &&
          std::find(tier_b.begin(), tier_b.end(), *nr) != tier_b.end()) {
        rank_slots[static_cast<size_t>(slot_of_rank(special_rank))] = *nr;
        placed.insert(*nr);
        ++special_rank;
      }
    }

    // Anchored placement: most-demanded (highest unweighted target) first.
    std::vector<UnweightedAnchor> anchors;
    for (const auto& anchor : UnweightedAnchors()) {
      if (!base.contains(anchor.syscall_nr) &&
          !tail.contains(anchor.syscall_nr)) {
        anchors.push_back(anchor);
      }
    }
    std::stable_sort(anchors.begin(), anchors.end(),
                     [](const UnweightedAnchor& a, const UnweightedAnchor& b) {
                       return a.unweighted_importance >
                              b.unweighted_importance;
                     });
    for (const auto& anchor : anchors) {
      int best_rank = -1;
      double best_err = 1e9;
      for (int rank = kBaseRankCount + 1; rank <= kTierBEnd; ++rank) {
        if (rank_slots[static_cast<size_t>(slot_of_rank(rank))] != -1) {
          continue;
        }
        double err =
            std::abs(share_at(rank) - anchor.unweighted_importance);
        if (err < best_err) {
          best_err = err;
          best_rank = rank;
        }
      }
      if (best_rank > 0) {
        rank_slots[static_cast<size_t>(slot_of_rank(best_rank))] =
            anchor.syscall_nr;
        placed.insert(anchor.syscall_nr);
      }
    }

    // Fill remaining slots with the unplaced tier-B syscalls in numeric
    // order.
    size_t cursor = 0;
    for (int nr : tier_b) {
      if (placed.contains(nr)) {
        continue;
      }
      while (cursor < rank_slots.size() && rank_slots[cursor] != -1) {
        ++cursor;
      }
      if (cursor >= rank_slots.size()) {
        return InternalError("tier-B rank slots exhausted");
      }
      rank_slots[cursor] = nr;
    }

    // Final global order: base (sorted), tier-B slots, tail (planned order:
    // anchored first, then fillers, then retired, then unused).
    spec.syscall_rank_order.assign(base.begin(), base.end());
    for (int nr : rank_slots) {
      spec.syscall_rank_order.push_back(nr);
    }
    std::vector<int> tail_order;
    std::set<int> tail_done;
    auto push_tail = [&](int nr) {
      if (tail.contains(nr) && tail_done.insert(nr).second) {
        tail_order.push_back(nr);
      }
    };
    for (const auto& plan : TailSyscallPlans()) {
      push_tail(plan.syscall_nr);
    }
    for (const auto& anchor : UnweightedAnchors()) {
      push_tail(anchor.syscall_nr);
    }
    for (int nr : RetiredButAttemptedSyscalls()) {
      push_tail(nr);
    }
    for (int nr : tail) {
      bool unused = false;
      for (int u : UnusedSyscalls()) {
        unused |= u == nr;
      }
      if (!unused) {
        push_tail(nr);
      }
    }
    for (int nr : UnusedSyscalls()) {
      push_tail(nr);
    }
    for (int nr : tail_order) {
      spec.syscall_rank_order.push_back(nr);
    }
    if (spec.syscall_rank_order.size() != kSyscallCount) {
      return InternalError("rank order must cover all 320 syscalls");
    }
  }

  // ---------------------------------------------------------------------
  // 5. Tail carriers: anchored (<10% unweighted) syscalls go to bottom-band
  //    app packages; unplanned fillers get 1-2 rare carriers.
  // ---------------------------------------------------------------------
  {
    std::set<int> planned;
    for (const auto& plan_entry : TailSyscallPlans()) {
      planned.insert(plan_entry.syscall_nr);
    }
    std::set<int> unused(UnusedSyscalls().begin(), UnusedSyscalls().end());

    // Bottom band: the lower-popularity 55% of app packages.
    std::vector<size_t> bottom;
    for (size_t i = app_indexes.size() * 45 / 100; i < app_indexes.size();
         ++i) {
      bottom.push_back(app_indexes[i]);
    }
    size_t rotor = 0;
    auto assign_carriers = [&](int nr, size_t count) {
      for (size_t i = 0; i < count && !bottom.empty(); ++i) {
        PackagePlan& plan = spec.packages[bottom[rotor % bottom.size()]];
        ++rotor;
        plan.extra_syscalls.push_back(nr);
      }
    };
    // Adds carriers until the combined weighted importance reaches
    // `target`: sum of -ln(1-p) reaches -ln(1-target).
    auto assign_to_importance = [&](int nr, double target) {
      double needed = -std::log(1.0 - std::min(target, 0.95));
      double have = 0.0;
      size_t safety = 0;
      while (have < needed && safety < bottom.size()) {
        PackagePlan& plan = spec.packages[bottom[rotor % bottom.size()]];
        ++rotor;
        ++safety;
        plan.extra_syscalls.push_back(nr);
        have += -std::log(1.0 - plan.target_marginal);
      }
    };

    // Modern/secure variants whose adoption the release knob scales.
    std::set<int> modern_variants;
    for (const auto& pair : VariantPairs()) {
      if (pair.table == VariantTable::kSecureAtomicDir ||
          pair.table == VariantTable::kOldNew ||
          pair.table == VariantTable::kPortability) {
        modern_variants.insert(pair.table == VariantTable::kOldNew ||
                                       pair.table ==
                                           VariantTable::kSecureAtomicDir
                                   ? pair.right_nr
                                   : pair.left_nr);
      }
    }
    for (const auto& anchor : UnweightedAnchors()) {
      if (!tail.contains(anchor.syscall_nr) ||
          planned.contains(anchor.syscall_nr)) {
        continue;
      }
      double adoption = anchor.unweighted_importance;
      if (modern_variants.contains(anchor.syscall_nr)) {
        adoption = std::min(0.5, adoption * options.modern_variant_adoption);
      }
      size_t count = static_cast<size_t>(
          adoption * static_cast<double>(spec.packages.size()) + 0.5);
      assign_carriers(anchor.syscall_nr, std::max<size_t>(1, count));
      planned.insert(anchor.syscall_nr);
    }

    // Remaining tail syscalls (not planned, not anchored, not unused):
    // importance targets declining through Fig 2's 33-syscall band
    // (10%..100%) into the 44-syscall low tail (<10%).
    size_t fill_index = 0;
    size_t fill_total = 0;
    for (int nr : tail) {
      if (!planned.contains(nr) && !unused.contains(nr)) {
        ++fill_total;
      }
    }
    for (int nr : tail) {
      if (planned.contains(nr) || unused.contains(nr)) {
        continue;
      }
      double t = fill_total <= 1
                     ? 0.0
                     : static_cast<double>(fill_index) /
                           static_cast<double>(fill_total - 1);
      // First ~60% of fillers decline 0.85 -> 0.10 (the Fig 2 mid band);
      // the rest decline 0.09 -> 0.005.
      double target = t < 0.60 ? 0.85 * std::pow(0.10 / 0.85, t / 0.60)
                               : 0.09 * std::pow(0.005 / 0.09,
                                                 (t - 0.60) / 0.40);
      assign_to_importance(nr, target);
      ++fill_index;
    }

    // qemu-user: the most demanding binary (paper: 270 syscalls). Give it
    // tail syscalls until its footprint reaches 270 — but not the ones
    // dedicated to other packages by the Tables 1-2 plans, whose published
    // importance must stay attributable to their owners.
    std::set<int> plan_owned;
    for (const auto& plan_entry : TailSyscallPlans()) {
      bool qemu_owns = false;
      for (const auto& owner : plan_entry.packages) {
        qemu_owns |= owner == "qemu-user";
      }
      if (!qemu_owns) {
        plan_owned.insert(plan_entry.syscall_nr);
      }
    }
    auto qemu = spec.by_name.find("qemu-user");
    if (qemu != spec.by_name.end()) {
      PackagePlan& plan = spec.packages[qemu->second];
      plan.syscall_prefix_rank = kTierBEnd;
      std::set<int> have(plan.extra_syscalls.begin(),
                         plan.extra_syscalls.end());
      for (int nr : spec.syscall_rank_order) {
        if (static_cast<int>(kTierBEnd) + static_cast<int>(have.size()) >=
            270) {
          break;
        }
        if (tail.contains(nr) && !unused.contains(nr) &&
            !plan_owned.contains(nr) && have.insert(nr).second) {
          plan.extra_syscalls.push_back(nr);
        }
      }
    }
  }

  // ---------------------------------------------------------------------
  // 6. Vectored opcodes, pseudo-files, libc symbols.
  // ---------------------------------------------------------------------
  {
    // Helper: essentials that can carry extra API usage. libc6 is excluded:
    // its fixed K=40 footprint must stay exactly the startup set, or its
    // ubiquity would poison the whole completeness curve through APT
    // dependency edges.
    std::vector<size_t> essentials;
    for (size_t i = 0; i < spec.packages.size(); ++i) {
      if (spec.packages[i].is_essential && spec.packages[i].name != "libc6") {
        essentials.push_back(i);
      }
    }
    // Nearest-popularity app carrier for a target importance.
    auto carrier_near = [&](double target, size_t salt) -> size_t {
      size_t best = app_indexes[0];
      double best_err = 1e9;
      for (size_t j = 0; j < app_indexes.size(); ++j) {
        // Offset scan start by salt so equal targets spread across apps.
        size_t idx = app_indexes[(j + salt * 131) % app_indexes.size()];
        double err =
            std::abs(spec.packages[idx].target_marginal - target);
        if (err < best_err - 1e-12) {
          best_err = err;
          best = idx;
        }
      }
      return best;
    };

    // ioctl: the 52 universal ops go to essentials (marginal 1.0 makes them
    // 100% important); the declining tail gets popularity-matched carriers.
    const auto& ioctl_ops = IoctlOps();
    for (size_t rank = 0; rank < 52; ++rank) {
      spec.packages[essentials[rank % essentials.size()]]
          .ioctl_ranks.push_back(rank);
    }
    for (size_t rank = 52; rank < ioctl_ops.size(); ++rank) {
      double target = ioctl_ops[rank].importance_target;
      if (target <= 0.0) {
        continue;
      }
      if (target > 0.5) {
        double per = 1.0 - std::sqrt(1.0 - target);
        spec.packages[carrier_near(per, rank)].ioctl_ranks.push_back(rank);
        spec.packages[carrier_near(per, rank * 7 + 1)].ioctl_ranks.push_back(
            rank);
      } else {
        spec.packages[carrier_near(target, rank)].ioctl_ranks.push_back(rank);
      }
    }

    // fcntl: the 11 universal ops ride on essentials; tail carriers after.
    const auto& fcntl_ops = FcntlOps();
    for (size_t rank = 0; rank < 11; ++rank) {
      spec.packages[essentials[rank % essentials.size()]]
          .fcntl_ranks.push_back(rank);
    }
    for (size_t rank = 11; rank < fcntl_ops.size(); ++rank) {
      double target = fcntl_ops[rank].importance_target;
      if (target <= 0.0) {
        continue;
      }
      if (target > 0.5) {
        double per = 1.0 - std::sqrt(1.0 - target);
        spec.packages[carrier_near(per, rank)].fcntl_ranks.push_back(rank);
        spec.packages[carrier_near(per, rank * 5 + 2)].fcntl_ranks.push_back(
            rank);
      } else {
        spec.packages[carrier_near(target, rank)].fcntl_ranks.push_back(rank);
      }
    }

    // prctl: the 9 universal ops ride on essentials; tail carriers after.
    const auto& prctl_ops = PrctlOps();
    for (size_t rank = 0; rank < 9; ++rank) {
      spec.packages[essentials[rank % essentials.size()]]
          .prctl_ranks.push_back(rank);
    }
    for (size_t rank = 9; rank < prctl_ops.size(); ++rank) {
      double target = prctl_ops[rank].importance_target;
      if (target <= 0.0) {
        continue;
      }
      if (target > 0.5) {
        double per = 1.0 - std::sqrt(1.0 - target);
        spec.packages[carrier_near(per, rank)].prctl_ranks.push_back(rank);
        spec.packages[carrier_near(per, rank * 3 + 1)].prctl_ranks.push_back(
            rank);
      } else {
        spec.packages[carrier_near(target, rank)].prctl_ranks.push_back(rank);
      }
    }

    // Pseudo-files: universal paths ride on essentials; the rest get a
    // popularity-matched carrier; plus probabilistic per-app emission from
    // the binary_fraction column.
    const auto& pseudo = PseudoFiles();
    for (size_t rank = 0; rank < pseudo.size(); ++rank) {
      double target = pseudo[rank].importance_target;
      if (target >= 0.99) {
        for (size_t e = 0; e < essentials.size(); ++e) {
          spec.packages[essentials[e]].pseudo_file_ranks.push_back(rank);
        }
      } else if (target > 0.0 && pseudo[rank].path != "/dev/kvm") {
        if (target > 0.5) {
          double per = 1.0 - std::sqrt(1.0 - target);
          spec.packages[carrier_near(per, rank)].pseudo_file_ranks.push_back(
              rank);
          spec.packages[carrier_near(per, rank * 11 + 3)]
              .pseudo_file_ranks.push_back(rank);
        } else {
          spec.packages[carrier_near(target, rank)]
              .pseudo_file_ranks.push_back(rank);
        }
      }
    }
    // Probabilistic hard-coded-path emission across apps (binary counts).
    for (size_t idx : app_indexes) {
      PackagePlan& plan = spec.packages[idx];
      for (size_t rank = 0; rank < pseudo.size(); ++rank) {
        double p_emit = pseudo[rank].binary_fraction *
                        static_cast<double>(plan.exe_count) * 4.0;
        if (prng.NextBool(std::min(0.5, p_emit))) {
          plan.pseudo_file_ranks.push_back(rank);
        }
      }
    }
    // /dev/kvm belongs to qemu alone (§3.4).
    auto qemu = spec.by_name.find("qemu-user");
    if (qemu != spec.by_name.end()) {
      for (size_t rank = 0; rank < pseudo.size(); ++rank) {
        if (pseudo[rank].path == "/dev/kvm") {
          spec.packages[qemu->second].pseudo_file_ranks.push_back(rank);
        }
      }
    }

    // libc symbols. Build band index lists once.
    const auto& libc = LibcUniverse();
    std::vector<size_t> common_band;
    std::vector<size_t> mid_band;
    std::vector<size_t> tail_band;
    std::vector<size_t> ext_band;
    for (size_t i = 0; i < libc.size(); ++i) {
      if (libc[i].wraps_syscall >= 0) {
        continue;  // wrappers are pulled in by the prefix mechanism
      }
      switch (libc[i].band) {
        case LibcBand::kCommonPool:
          common_band.push_back(i);
          break;
        case LibcBand::kMid:
          if (libc[i].gnu_extension) {
            ext_band.push_back(i);
          } else {
            mid_band.push_back(i);
          }
          break;
        case LibcBand::kTail:
          tail_band.push_back(i);
          break;
        default:
          break;
      }
    }
    // Common pool: every ELF package samples ~22; essentials cover the band
    // round-robin so every common symbol has a marginal-1.0 dependent.
    for (size_t i = 0; i < spec.packages.size(); ++i) {
      PackagePlan& plan = spec.packages[i];
      if (plan.data_only || !plan.interpreter_package.empty() ||
          plan.static_binary) {
        continue;
      }
      size_t sample = 18 + prng.NextBelow(10);
      for (size_t s = 0; s < sample; ++s) {
        plan.libc_common_ranks.push_back(
            common_band[prng.NextBelow(common_band.size())]);
      }
    }
    {
      size_t stride = common_band.size() / essentials.size() + 1;
      for (size_t e = 0; e < essentials.size(); ++e) {
        PackagePlan& plan = spec.packages[essentials[e]];
        for (size_t s = 0; s <= stride; ++s) {
          plan.libc_common_ranks.push_back(
              common_band[(e * stride + s) % common_band.size()]);
        }
      }
    }
    // Mid band: realized through a SHARED "exotic pool" of moderately
    // unpopular packages. Concentrating all sub-100% libc usage in one pool
    // keeps the combined installation weight of packages needing any
    // below-90%-importance symbol small — the paper measures that a libc
    // stripped at the 90% threshold still reaches 90.7% weighted
    // completeness (§3.5), which is only possible if rare-API users
    // overlap heavily.
    {
      // The pool shares the low-popularity band with the tail-syscall
      // carriers: the same fringe packages use both the rare syscalls and
      // the rare libc functions, which is what keeps the combined weight
      // of "needs anything below 90% importance" near the paper's 9.3%.
      std::vector<size_t> pool;
      size_t pool_begin = app_indexes.size() * 45 / 100;
      for (size_t i = pool_begin; i < app_indexes.size(); ++i) {
        pool.push_back(app_indexes[i]);
      }
      size_t cursor = 0;
      for (size_t sym : mid_band) {
        double target = libc[sym].importance_target;
        if (target <= 0.0 || pool.empty()) {
          continue;
        }
        // Add pool members until the no-install probability drops to
        // (1 - target): sum of -ln(1-p) must reach -ln(1-target).
        double needed = -std::log(1.0 - std::min(target, 0.97));
        double have = 0.0;
        size_t safety = 0;
        while (have < needed && safety < pool.size()) {
          PackagePlan& plan = spec.packages[pool[cursor % pool.size()]];
          ++cursor;
          ++safety;
          plan.libc_extra_ranks.push_back(sym);
          have += -std::log(1.0 - plan.target_marginal);
        }
      }
    }
    // GNU extensions: used by high-capability packages (K >= 132), which
    // hold ~58% of installation weight (Table 7 normalized gap).
    {
      size_t rotor = 0;
      for (size_t i = 0; i < spec.packages.size(); ++i) {
        PackagePlan& plan = spec.packages[i];
        if (plan.syscall_prefix_rank >= 132 && !plan.data_only &&
            plan.interpreter_package.empty() && !plan.static_binary &&
            !ext_band.empty()) {
          plan.uses_gnu_ext = true;
          plan.libc_extra_ranks.push_back(ext_band[rotor % ext_band.size()]);
          plan.libc_extra_ranks.push_back(
              ext_band[(rotor + 7) % ext_band.size()]);
          ++rotor;
        }
      }
    }
    // Tail band: one bottom-band carrier each.
    {
      std::vector<size_t> bottom;
      for (size_t i = app_indexes.size() / 2; i < app_indexes.size(); ++i) {
        bottom.push_back(app_indexes[i]);
      }
      size_t rotor = 1;
      for (size_t sym : tail_band) {
        if (libc[sym].importance_target <= 0.0) {
          continue;
        }
        spec.packages[bottom[rotor % bottom.size()]]
            .libc_extra_ranks.push_back(sym);
        rotor += 3;
      }
    }
  }

  return spec;
}

}  // namespace lapis::corpus
