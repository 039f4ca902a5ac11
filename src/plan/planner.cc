#include "src/plan/planner.h"

#include <algorithm>
#include <cstdio>
#include <queue>
#include <string>

#include "src/corpus/syscall_table.h"

namespace lapis::plan {

namespace {

constexpr uint32_t kUncoverable = UINT32_MAX;
constexpr double kEps = 1e-9;

bool KindEvaluated(const std::set<core::ApiKind>& kinds, core::ApiKind kind) {
  return kinds.empty() || kinds.contains(kind);
}

// The shared problem formulation all three solvers run on. Indexes the
// candidate APIs (needed, unsupported, whitelisted), flattens each package's
// dependency-closure footprint into a need list of candidate indexes, and
// tracks which packages can never be covered (they need an API outside the
// whitelist) yet still weigh down the completeness denominator.
struct Instance {
  const core::StudyDataset* dataset = nullptr;

  std::vector<core::ApiId> apis;  // candidate index -> ApiId (sorted)
  std::vector<double> api_cost;
  std::vector<SupportAction> api_action;
  std::vector<EvidenceClass> api_class;
  std::vector<double> api_importance;
  // candidate index -> coverable packages whose need contains it.
  std::vector<std::vector<uint32_t>> needers;

  std::vector<std::vector<uint32_t>> need;  // pkg -> candidate indexes
  std::vector<uint32_t> missing;            // |unacquired need|; kUncoverable
  std::vector<double> weight;

  double total_weight = 0.0;
  double base_weight = 0.0;  // packages supported before any action

  double Completeness(double covered_weight) const {
    if (total_weight == 0.0) {
      return 0.0;
    }
    return (base_weight + covered_weight) / total_weight;
  }
};

Instance BuildInstance(const PlannerInput& input) {
  Instance inst;
  inst.dataset = input.dataset;
  const core::StudyDataset& ds = *input.dataset;
  const size_t n_pkgs = ds.package_count();

  // Pass 1: per-package needed API set (over the closure, evaluated kinds,
  // minus already-supported) and coverability under the whitelist.
  std::vector<std::set<core::ApiId>> needed(n_pkgs);
  std::vector<bool> coverable(n_pkgs, true);
  for (core::PackageId p = 0; p < n_pkgs; ++p) {
    for (core::PackageId member : ds.DependencyClosure(p)) {
      for (const core::ApiId& api : ds.Footprint(member)) {
        if (!KindEvaluated(input.evaluated_kinds, api.kind)) {
          continue;
        }
        if (input.already_supported.contains(api)) {
          continue;
        }
        if (!input.candidate_whitelist.empty() &&
            !input.candidate_whitelist.contains(api)) {
          coverable[p] = false;
          continue;
        }
        needed[p].insert(api);
      }
    }
  }

  // Pass 2: candidate universe = union of coverable packages' needs.
  std::set<core::ApiId> candidate_set;
  for (core::PackageId p = 0; p < n_pkgs; ++p) {
    if (coverable[p]) {
      candidate_set.insert(needed[p].begin(), needed[p].end());
    }
  }
  inst.apis.assign(candidate_set.begin(), candidate_set.end());
  std::map<int64_t, uint32_t> index;
  for (uint32_t i = 0; i < inst.apis.size(); ++i) {
    index[inst.apis[i].Encode()] = i;
  }

  // Vectored-family breadth comes from the full dataset (every used sub-op
  // of the kind), not the whitelist — so restricting an instance for the
  // exact solver never changes per-API costs.
  std::array<size_t, core::kApiKindCount> breadth{};
  for (int k = 0; k < core::kApiKindCount; ++k) {
    breadth[static_cast<size_t>(k)] =
        ds.ApisOfKind(static_cast<core::ApiKind>(k)).size();
  }

  inst.api_cost.resize(inst.apis.size());
  inst.api_action.resize(inst.apis.size());
  inst.api_class.resize(inst.apis.size());
  inst.api_importance.resize(inst.apis.size());
  inst.needers.resize(inst.apis.size());
  for (uint32_t i = 0; i < inst.apis.size(); ++i) {
    const core::ApiId api = inst.apis[i];
    EvidenceClass cls = ClassifyApi(input.evidence, api);
    SupportAction action = MinimalSufficientAction(cls, api.kind);
    inst.api_class[i] = cls;
    inst.api_action[i] = action;
    inst.api_cost[i] = input.costs->ActionCost(
        api, action, breadth[static_cast<size_t>(api.kind)]);
    inst.api_importance[i] = ds.ApiImportance(api);
  }

  inst.need.resize(n_pkgs);
  inst.missing.assign(n_pkgs, 0);
  inst.weight.resize(n_pkgs);
  for (core::PackageId p = 0; p < n_pkgs; ++p) {
    inst.weight[p] = ds.InstallProbability(p);
    inst.total_weight += inst.weight[p];
    if (!coverable[p]) {
      inst.missing[p] = kUncoverable;
      continue;
    }
    inst.need[p].reserve(needed[p].size());
    for (const core::ApiId& api : needed[p]) {
      uint32_t i = index.at(api.Encode());
      inst.need[p].push_back(i);
      inst.needers[i].push_back(p);
    }
    inst.missing[p] = static_cast<uint32_t>(inst.need[p].size());
    if (inst.missing[p] == 0) {
      inst.base_weight += inst.weight[p];
    }
  }
  return inst;
}

void AppendAction(const Instance& inst, uint32_t api_idx, double cumulative,
                  double completeness, SupportPlan* plan) {
  PlanAction action;
  action.api = inst.apis[api_idx];
  action.action = inst.api_action[api_idx];
  action.evidence = inst.api_class[api_idx];
  action.cost = inst.api_cost[api_idx];
  action.cumulative_cost = cumulative;
  action.completeness_after = completeness;
  action.importance = inst.api_importance[api_idx];
  plan->actions.push_back(action);
}

// ---------------------------------------------------------------------------
// Greedy solver.
// ---------------------------------------------------------------------------

struct PqEntry {
  double ratio = 0.0;
  double gain = 0.0;
  uint32_t pkg = 0;
  uint64_t version = 0;
};

struct PqWorse {
  bool operator()(const PqEntry& a, const PqEntry& b) const {
    if (a.ratio != b.ratio) {
      return a.ratio < b.ratio;
    }
    if (a.gain != b.gain) {
      return a.gain < b.gain;
    }
    return a.pkg > b.pkg;
  }
};

// Scratch for exact marginal-gain evaluation without clearing between calls.
struct GainScratch {
  std::vector<uint64_t> stamp;
  std::vector<uint32_t> count;
  uint64_t epoch = 0;
};

struct Move {
  std::vector<uint32_t> need;  // unacquired candidate indexes
  double cost = 0.0;
  double gain = 0.0;  // weight of every package this move completes
};

Move EvaluateMove(const Instance& inst, const std::vector<bool>& acquired,
                  uint32_t pkg, GainScratch* scratch) {
  Move move;
  for (uint32_t i : inst.need[pkg]) {
    if (!acquired[i]) {
      move.need.push_back(i);
      move.cost += inst.api_cost[i];
    }
  }
  ++scratch->epoch;
  for (uint32_t i : move.need) {
    for (uint32_t q : inst.needers[i]) {
      if (inst.missing[q] == 0 || inst.missing[q] == kUncoverable) {
        continue;
      }
      if (scratch->stamp[q] != scratch->epoch) {
        scratch->stamp[q] = scratch->epoch;
        scratch->count[q] = 0;
      }
      if (++scratch->count[q] == inst.missing[q]) {
        move.gain += inst.weight[q];
      }
    }
  }
  return move;
}

double MoveRatio(const Move& move) {
  return move.gain / std::max(move.cost, 1e-12);
}

// One lazy-PQ greedy sweep. With `gain_priority` the queue is ordered by
// raw gain instead of gain/cost: on tight budgets the ratio order can
// strand budget on small high-ratio moves while a single large move was
// the optimum, and vice versa — GreedyPlan runs both and keeps the better
// (the classic fix for budgeted max-coverage greedy's worst cases).
SupportPlan GreedyPass(const PlannerInput& input, bool gain_priority) {
  Instance inst = BuildInstance(input);
  const size_t n_pkgs = inst.weight.size();

  SupportPlan plan;
  plan.initial_completeness = inst.Completeness(0.0);
  plan.final_completeness = plan.initial_completeness;

  std::vector<bool> acquired(inst.apis.size(), false);
  std::vector<uint64_t> version(n_pkgs, 0);
  GainScratch scratch;
  scratch.stamp.assign(n_pkgs, 0);
  scratch.count.assign(n_pkgs, 0);

  std::priority_queue<PqEntry, std::vector<PqEntry>, PqWorse> pq;
  std::set<uint32_t> parked;  // affordable again only if a move dirties them

  auto priority = [gain_priority](const Move& move) {
    return gain_priority ? move.gain : MoveRatio(move);
  };

  for (uint32_t p = 0; p < n_pkgs; ++p) {
    if (inst.missing[p] == 0 || inst.missing[p] == kUncoverable) {
      continue;
    }
    Move move = EvaluateMove(inst, acquired, p, &scratch);
    if (move.gain > 0.0) {
      pq.push(PqEntry{priority(move), move.gain, p, 0});
    }
  }

  double covered_weight = 0.0;
  double cumulative_cost = 0.0;

  // Budget is a feasibility constraint (a move either fits or is parked);
  // max_actions is an output cap — the emitted list is truncated mid-move
  // if needed, since on real datasets the smallest package closure can
  // exceed any reasonable display length.
  auto fits = [&](const Move& move) {
    return cumulative_cost + move.cost <= input.budget + kEps;
  };
  auto capped = [&] {
    return input.max_actions != 0 && plan.actions.size() >= input.max_actions;
  };

  while (!pq.empty() && !capped()) {
    PqEntry top = pq.top();
    pq.pop();
    if (inst.missing[top.pkg] == 0 ||
        inst.missing[top.pkg] == kUncoverable) {
      continue;
    }
    if (top.version != version[top.pkg]) {
      // Stale: a previous move changed this package's remaining need.
      // Re-evaluate and requeue at the fresh priority.
      Move move = EvaluateMove(inst, acquired, top.pkg, &scratch);
      if (move.gain > 0.0) {
        pq.push(
            PqEntry{priority(move), move.gain, top.pkg, version[top.pkg]});
      }
      continue;
    }
    Move move = EvaluateMove(inst, acquired, top.pkg, &scratch);
    if (move.gain <= 0.0) {
      continue;
    }
    if (!fits(move)) {
      // Unaffordable now; its cost only shrinks when a move overlaps it,
      // which re-queues it below — park until then.
      parked.insert(top.pkg);
      continue;
    }

    // Execute: acquire the move's APIs most-important-first so the emitted
    // per-action completeness curve rises as early as possible.
    std::sort(move.need.begin(), move.need.end(),
              [&inst](uint32_t a, uint32_t b) {
                if (inst.api_importance[a] != inst.api_importance[b]) {
                  return inst.api_importance[a] > inst.api_importance[b];
                }
                return inst.apis[a] < inst.apis[b];
              });
    std::set<uint32_t> dirty;
    for (uint32_t i : move.need) {
      if (capped()) {
        break;
      }
      acquired[i] = true;
      cumulative_cost += inst.api_cost[i];
      for (uint32_t q : inst.needers[i]) {
        if (inst.missing[q] == 0 || inst.missing[q] == kUncoverable) {
          continue;
        }
        if (--inst.missing[q] == 0) {
          covered_weight += inst.weight[q];
        } else {
          dirty.insert(q);
        }
      }
      AppendAction(inst, i, cumulative_cost, inst.Completeness(covered_weight),
                   &plan);
    }
    for (uint32_t q : dirty) {
      ++version[q];
      parked.erase(q);
      Move fresh = EvaluateMove(inst, acquired, q, &scratch);
      if (fresh.gain > 0.0) {
        pq.push(PqEntry{priority(fresh), fresh.gain, q, version[q]});
      }
    }
  }

  plan.total_cost = cumulative_cost;
  plan.final_completeness = inst.Completeness(covered_weight);
  return plan;
}

}  // namespace

SupportPlan GreedyPlan(const PlannerInput& input) {
  SupportPlan by_ratio = GreedyPass(input, /*gain_priority=*/false);
  SupportPlan by_gain = GreedyPass(input, /*gain_priority=*/true);
  if (by_gain.final_completeness > by_ratio.final_completeness + kEps) {
    return by_gain;
  }
  if (by_ratio.final_completeness > by_gain.final_completeness + kEps) {
    return by_ratio;
  }
  // Equal completeness: prefer the cheaper plan, ratio order on a tie so
  // the emitted action sequence front-loads efficiency.
  return by_ratio.total_cost <= by_gain.total_cost + kEps ? by_ratio
                                                          : by_gain;
}

// ---------------------------------------------------------------------------
// Importance-order baseline.
// ---------------------------------------------------------------------------

SupportPlan ImportanceOrderPlan(const PlannerInput& input) {
  Instance inst = BuildInstance(input);

  SupportPlan plan;
  plan.initial_completeness = inst.Completeness(0.0);

  std::vector<uint32_t> order(inst.apis.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  const core::StudyDataset& ds = *input.dataset;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (inst.api_importance[a] != inst.api_importance[b]) {
      return inst.api_importance[a] > inst.api_importance[b];
    }
    double ua = ds.UnweightedImportance(inst.apis[a]);
    double ub = ds.UnweightedImportance(inst.apis[b]);
    if (ua != ub) {
      return ua > ub;
    }
    return inst.apis[a] < inst.apis[b];
  });

  double covered_weight = 0.0;
  double cumulative_cost = 0.0;
  for (uint32_t i : order) {
    if (cumulative_cost + inst.api_cost[i] > input.budget + kEps) {
      continue;  // cost-blind ranking: skip what no longer fits, keep going
    }
    if (input.max_actions != 0 && plan.actions.size() >= input.max_actions) {
      break;
    }
    cumulative_cost += inst.api_cost[i];
    for (uint32_t q : inst.needers[i]) {
      if (inst.missing[q] == 0 || inst.missing[q] == kUncoverable) {
        continue;
      }
      if (--inst.missing[q] == 0) {
        covered_weight += inst.weight[q];
      }
    }
    AppendAction(inst, i, cumulative_cost, inst.Completeness(covered_weight),
                 &plan);
  }

  plan.total_cost = cumulative_cost;
  plan.final_completeness = inst.Completeness(covered_weight);
  return plan;
}

// ---------------------------------------------------------------------------
// Exact solver: subset DP over the candidate APIs.
// ---------------------------------------------------------------------------

namespace {

// Largest candidate count the subset DP takes (memory is O(2^n)).
constexpr size_t kDpMaxCandidates = 20;

}  // namespace

Result<ExactResult> ExactPlan(const PlannerInput& input) {
  Instance inst = BuildInstance(input);
  if (inst.apis.size() > kDpMaxCandidates) {
    return InvalidArgumentError(
        "ExactPlan takes at most " + std::to_string(kDpMaxCandidates) +
        " candidate APIs, got " + std::to_string(inst.apis.size()) +
        "; restrict with RestrictToTopApis");
  }
  const uint32_t n = static_cast<uint32_t>(inst.apis.size());
  const size_t n_masks = size_t{1} << n;

  std::vector<double> cost(n_masks, 0.0);
  for (size_t mask = 1; mask < n_masks; ++mask) {
    size_t low = mask & (~mask + 1);
    uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(mask));
    cost[mask] = cost[mask ^ low] + inst.api_cost[bit];
  }

  // coverage[mask] = weight of packages whose need is a subset of mask
  // (beyond the base weight), via a superset-sum DP.
  std::vector<double> coverage(n_masks, 0.0);
  for (uint32_t p = 0; p < inst.weight.size(); ++p) {
    if (inst.missing[p] == 0 || inst.missing[p] == kUncoverable) {
      continue;
    }
    size_t need_mask = 0;
    for (uint32_t i : inst.need[p]) {
      need_mask |= size_t{1} << i;
    }
    coverage[need_mask] += inst.weight[p];
  }
  for (uint32_t bit = 0; bit < n; ++bit) {
    for (size_t mask = 0; mask < n_masks; ++mask) {
      if (mask & (size_t{1} << bit)) {
        coverage[mask] += coverage[mask ^ (size_t{1} << bit)];
      }
    }
  }

  size_t best_mask = 0;
  for (size_t mask = 0; mask < n_masks; ++mask) {
    if (cost[mask] > input.budget + kEps) {
      continue;
    }
    if (input.max_actions != 0 &&
        static_cast<size_t>(__builtin_popcountll(mask)) >
            input.max_actions) {
      continue;
    }
    if (coverage[mask] > coverage[best_mask] + 1e-12 ||
        (coverage[mask] > coverage[best_mask] - 1e-12 &&
         cost[mask] < cost[best_mask] - kEps)) {
      best_mask = mask;
    }
  }

  ExactResult result;
  result.completeness = inst.Completeness(coverage[best_mask]);
  result.cost = cost[best_mask];
  for (uint32_t bit = 0; bit < n; ++bit) {
    if (best_mask & (size_t{1} << bit)) {
      result.chosen.push_back(inst.apis[bit]);
    }
  }
  return result;
}

PlannerInput RestrictToTopApis(const PlannerInput& input, size_t top_k) {
  PlannerInput restricted = input;
  restricted.candidate_whitelist.clear();
  Instance inst = BuildInstance(restricted);

  std::vector<uint32_t> order(inst.apis.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&inst](uint32_t a, uint32_t b) {
    if (inst.api_importance[a] != inst.api_importance[b]) {
      return inst.api_importance[a] > inst.api_importance[b];
    }
    return inst.apis[a] < inst.apis[b];
  });

  for (size_t i = 0; i < order.size() && i < top_k; ++i) {
    restricted.candidate_whitelist.insert(inst.apis[order[i]]);
  }
  return restricted;
}

// ---------------------------------------------------------------------------
// Export.
// ---------------------------------------------------------------------------

std::string PlanApiName(core::ApiId api,
                        const core::StringInterner& path_interner,
                        const core::StringInterner& libc_interner) {
  char buf[32];
  switch (api.kind) {
    case core::ApiKind::kSyscall: {
      std::string_view name = corpus::SyscallName(static_cast<int>(api.code));
      if (!name.empty()) {
        return std::string(name);
      }
      std::snprintf(buf, sizeof(buf), "syscall:%u", api.code);
      return buf;
    }
    case core::ApiKind::kIoctlOp:
    case core::ApiKind::kFcntlOp:
    case core::ApiKind::kPrctlOp:
      std::snprintf(buf, sizeof(buf), "0x%x", api.code);
      return buf;
    case core::ApiKind::kPseudoFile:
      if (api.code < path_interner.size()) {
        return path_interner.NameOf(api.code);
      }
      break;
    case core::ApiKind::kLibcFn:
      if (api.code < libc_interner.size()) {
        return libc_interner.NameOf(api.code);
      }
      break;
  }
  std::snprintf(buf, sizeof(buf), "%s:%u", core::ApiKindName(api.kind),
                api.code);
  return buf;
}

void WritePlanTsv(const SupportPlan& plan,
                  const core::StringInterner& path_interner,
                  const core::StringInterner& libc_interner,
                  std::ostream& os) {
  os << "rank\tkind\tapi\taction\tclass\tcost\tcumulative_cost\t"
        "completeness\timportance\n";
  char buf[128];
  size_t rank = 1;
  for (const PlanAction& action : plan.actions) {
    // %.9g keeps doubles byte-identical run-to-run without trailing noise.
    std::snprintf(buf, sizeof(buf), "%.9g\t%.9g\t%.9g\t%.9g", action.cost,
                  action.cumulative_cost, action.completeness_after,
                  action.importance);
    os << rank++ << '\t' << core::ApiKindName(action.api.kind) << '\t'
       << PlanApiName(action.api, path_interner, libc_interner) << '\t'
       << ActionName(action.action) << '\t'
       << EvidenceClassName(action.evidence) << '\t' << buf << '\n';
  }
}

}  // namespace lapis::plan
