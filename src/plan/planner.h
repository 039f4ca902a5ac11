// The support planner: given a study dataset, a set of already-supported
// APIs (the target system profile), a cost model, and optional audit
// evidence, compute the order in which to add API support — and how fully
// (full / fake / stub) — to maximize weighted completeness per unit cost.
//
// Three solvers share one problem formulation:
//   GreedyPlan            — marginal gain/cost over package-closure moves,
//                           lazy priority queue (stale entries re-evaluated
//                           on pop, affected packages re-pushed when a move
//                           shrinks their remaining cost).
//   ExactPlan             — optimal completeness at a budget: subset DP over
//                           API bitmasks, for at most 20 candidates.
//   ImportanceOrderPlan   — the paper's §3.2 ranking as a baseline: add APIs
//                           in importance order, cost-blind.
//
// The objective mirrors core::WeightedCompleteness exactly (footprint
// containment restricted to evaluated kinds + dependency poisoning through
// closures), computed incrementally.

#ifndef LAPIS_SRC_PLAN_PLANNER_H_
#define LAPIS_SRC_PLAN_PLANNER_H_

#include <cstdint>
#include <limits>
#include <ostream>
#include <set>
#include <vector>

#include "src/core/api_id.h"
#include "src/core/dataset.h"
#include "src/plan/cost_model.h"
#include "src/plan/evidence.h"
#include "src/util/status.h"

namespace lapis::plan {

struct PlannerInput {
  const core::StudyDataset* dataset = nullptr;
  const CostModel* costs = nullptr;
  // APIs the target already implements (e.g. a Table 6 system's syscalls).
  std::set<core::ApiId> already_supported;
  // Kinds the target is evaluated on; empty = all kinds (matches
  // core::CompletenessOptions semantics).
  std::set<core::ApiKind> evaluated_kinds;
  // Dynamic-replay observations; empty = audit-blind (full everywhere).
  AuditEvidence evidence;
  // Stop once cumulative cost would exceed this.
  double budget = std::numeric_limits<double>::infinity();
  // Output cap: truncate the emitted action list after this many actions
  // (0 = unlimited). Unlike `budget` this is not a feasibility constraint —
  // the greedy may stop mid-move, leaving the last package part-acquired.
  size_t max_actions = 0;
  // Restrict plannable APIs to this set (empty = all candidates). Packages
  // needing an API outside the whitelist stay in the completeness
  // denominator but can never be covered — used to build small instances
  // the exact solver can certify.
  std::set<core::ApiId> candidate_whitelist;
};

struct PlanAction {
  core::ApiId api;
  SupportAction action = SupportAction::kFull;
  EvidenceClass evidence = EvidenceClass::kNoEvidence;
  double cost = 0.0;
  double cumulative_cost = 0.0;
  double completeness_after = 0.0;
  double importance = 0.0;
};

struct SupportPlan {
  std::vector<PlanAction> actions;
  double initial_completeness = 0.0;
  double final_completeness = 0.0;
  double total_cost = 0.0;
};

SupportPlan GreedyPlan(const PlannerInput& input);
SupportPlan ImportanceOrderPlan(const PlannerInput& input);

struct ExactResult {
  double completeness = 0.0;   // best achievable at the budget
  double cost = 0.0;           // cost of the chosen set
  std::vector<core::ApiId> chosen;
};

// Subset DP over the candidate APIs (memory is O(2^n)). More than 20
// candidates is an InvalidArgumentError; restrict first with
// RestrictToTopApis.
Result<ExactResult> ExactPlan(const PlannerInput& input);

// Narrows `input` to the `top_k` most important not-yet-supported APIs so
// ExactPlan stays tractable; everything else about the instance (weights,
// closures, denominator) is unchanged.
PlannerInput RestrictToTopApis(const PlannerInput& input, size_t top_k);

// Deterministic TSV export (columns: rank, kind, api, action, class, cost,
// cumulative_cost, completeness, importance). Doubles print with %.9g so
// identical plans are byte-identical across runs and --jobs settings.
void WritePlanTsv(const SupportPlan& plan,
                  const core::StringInterner& path_interner,
                  const core::StringInterner& libc_interner, std::ostream& os);

// Human-readable API name: syscall names from the table, vectored opcodes
// as "0x<hex>", pseudo-files / libc symbols from the interners.
std::string PlanApiName(core::ApiId api,
                        const core::StringInterner& path_interner,
                        const core::StringInterner& libc_interner);

}  // namespace lapis::plan

#endif  // LAPIS_SRC_PLAN_PLANNER_H_
