// Support-planner frontier benchmark: runs an audited study in-process,
// then for each Table 6 system plots the completeness-vs-cost frontier
// three ways:
//
//   * greedy marginal-gain/cost planner (the shipping solver)
//   * exact optimum (subset DP) on small budgets over the top candidates,
//     to certify the greedy's optimality gap
//   * importance-order baseline (the paper's §3.2 ranking, cost-blind)
//
// plus an audit-value section: the cost to reach fixed completeness
// targets with and without the dynamic-replay evidence (evidence lets
// vectored sub-ops be faked and claimed-but-unobserved APIs be stubbed,
// so the informed frontier reaches each target cheaper).
//
// Results go to BENCH_plan.json (override with LAPIS_PLAN_BENCH_JSON).
// Scale knobs: LAPIS_BENCH_APPS / LAPIS_BENCH_INSTALLS.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_host.h"
#include "src/corpus/study_runner.h"
#include "src/corpus/system_profiles.h"
#include "src/plan/cost_model.h"
#include "src/plan/planner.h"
#include "src/runtime/stage_stats.h"
#include "src/util/env.h"

namespace lapis {
namespace {

// (cumulative cost, completeness) frontier of a finished plan, starting at
// the profile's initial completeness for cost 0.
std::vector<std::pair<double, double>> Curve(const plan::SupportPlan& p) {
  std::vector<std::pair<double, double>> curve;
  curve.reserve(p.actions.size() + 1);
  curve.emplace_back(0.0, p.initial_completeness);
  for (const auto& action : p.actions) {
    curve.emplace_back(action.cumulative_cost, action.completeness_after);
  }
  return curve;
}

// Best completeness the frontier reaches without exceeding `cost`.
double CompletenessAtCost(const std::vector<std::pair<double, double>>& curve,
                          double cost) {
  double best = 0.0;
  for (const auto& [c, comp] : curve) {
    if (c <= cost + 1e-9) {
      best = std::max(best, comp);
    }
  }
  return best;
}

// Cheapest frontier point reaching `target` completeness; -1 if never.
double CostToReach(const std::vector<std::pair<double, double>>& curve,
                   double target) {
  for (const auto& [c, comp] : curve) {
    if (comp >= target - 1e-9) {
      return c;
    }
  }
  return -1.0;
}

// Decimated curve for the JSON: every point up to `dense`, then every
// `stride`-th, always keeping the last.
void AppendCurveJson(std::ostringstream& os, const char* label,
                     const std::vector<std::pair<double, double>>& curve,
                     bool last = false) {
  constexpr size_t kDense = 48;
  constexpr size_t kStride = 10;
  os << "      \"" << label << "\": [";
  bool first = true;
  for (size_t i = 0; i < curve.size(); ++i) {
    if (i >= kDense && i + 1 != curve.size() && (i % kStride) != 0) {
      continue;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s[%.2f, %.6f]", first ? "" : ", ",
                  curve[i].first, curve[i].second);
    os << buf;
    first = false;
  }
  os << "]" << (last ? "" : ",") << "\n";
}

struct TimedPlan {
  plan::SupportPlan plan;
  double wall_ms = 0.0;
};

TimedPlan RunGreedy(const plan::PlannerInput& input) {
  TimedPlan out;
  double start = runtime::MonotonicSeconds();
  out.plan = plan::GreedyPlan(input);
  out.wall_ms = (runtime::MonotonicSeconds() - start) * 1e3;
  return out;
}

int Run() {
  corpus::StudyOptions options;
  options.distro.app_package_count = EnvSizeOr("LAPIS_BENCH_APPS", 600);
  options.distro.installation_count =
      EnvSizeOr("LAPIS_BENCH_INSTALLS", 50000);
  options.audit = true;  // the bench is precisely about audit evidence

  std::fprintf(stderr,
               "[bench_support_frontier] running audited study (%zu "
               "apps)...\n",
               options.distro.app_package_count);
  auto study = corpus::RunStudy(options);
  if (!study.ok()) {
    std::fprintf(stderr, "study failed: %s\n",
                 study.status().ToString().c_str());
    return 1;
  }
  const core::StudyDataset& dataset = *study.value().dataset;
  plan::AuditEvidence evidence;
  evidence.kinds_mask = study.value().evidence_kinds_mask;
  evidence.observed = study.value().evidence_observed;
  if (evidence.empty()) {
    std::fprintf(stderr, "no audit evidence produced; bench is meaningless\n");
    return 1;
  }

  const plan::CostModel costs = plan::CostModel::Defaults();
  int failures = 0;

  std::ostringstream systems_json;
  bool first_system = true;
  for (const auto& row : corpus::LinuxSystemPlans()) {
    core::SystemProfile profile =
        corpus::BuildSystemProfile(dataset, row);
    plan::PlannerInput input;
    input.dataset = &dataset;
    input.costs = &costs;
    input.already_supported = profile.supported;
    input.evaluated_kinds = profile.evaluated_kinds;
    input.evidence = evidence;

    TimedPlan greedy = RunGreedy(input);
    double base_start = runtime::MonotonicSeconds();
    plan::SupportPlan baseline = plan::ImportanceOrderPlan(input);
    double base_ms = (runtime::MonotonicSeconds() - base_start) * 1e3;
    auto greedy_curve = Curve(greedy.plan);
    auto base_curve = Curve(baseline);

    // Budget-point dominance: at each greedy frontier cost, does the
    // importance order do strictly worse?
    size_t dominated = 0;
    double max_advantage = 0.0, at_cost = 0.0;
    for (const auto& [c, comp] : greedy_curve) {
      double gap = comp - CompletenessAtCost(base_curve, c);
      if (gap > 1e-9) {
        ++dominated;
        if (gap > max_advantage) {
          max_advantage = gap;
          at_cost = c;
        }
      }
    }

    // Exact certification on a small instance: the 14 most important
    // missing APIs, at 25/50/75% of the restricted frontier's cost.
    plan::PlannerInput small = plan::RestrictToTopApis(input, 14);
    plan::SupportPlan small_full = plan::GreedyPlan(small);
    std::ostringstream exact_json;
    bool first_budget = true;
    double worst_ratio = 1.0;
    for (double fraction : {0.25, 0.5, 0.75}) {
      plan::PlannerInput at_budget = small;
      at_budget.budget = std::max(1.0, small_full.total_cost * fraction);
      double exact_start = runtime::MonotonicSeconds();
      auto exact_or = plan::ExactPlan(at_budget);
      double exact_ms = (runtime::MonotonicSeconds() - exact_start) * 1e3;
      if (!exact_or.ok()) {
        std::fprintf(stderr, "[bench_support_frontier] %s: %s\n",
                     row.name.c_str(),
                     exact_or.status().ToString().c_str());
        return 1;
      }
      const plan::ExactResult& exact = exact_or.value();
      TimedPlan greedy_small = RunGreedy(at_budget);
      double ratio = exact.completeness > 1e-12
                         ? greedy_small.plan.final_completeness /
                               exact.completeness
                         : 1.0;
      worst_ratio = std::min(worst_ratio, ratio);
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s\n        { \"budget\": %.2f, \"exact\": %.6f, "
                    "\"greedy\": %.6f, \"ratio\": %.4f, "
                    "\"exact_wall_ms\": %.2f, \"greedy_wall_ms\": %.2f }",
                    first_budget ? "" : ",", at_budget.budget,
                    exact.completeness,
                    greedy_small.plan.final_completeness, ratio, exact_ms,
                    greedy_small.wall_ms);
      exact_json << buf;
      first_budget = false;
      if (ratio < 0.95) {
        std::fprintf(stderr,
                     "[bench_support_frontier] FAIL %s: greedy %.4f < "
                     "0.95 x exact %.4f at budget %.1f\n",
                     row.name.c_str(),
                     greedy_small.plan.final_completeness,
                     exact.completeness, at_budget.budget);
        ++failures;
      }
    }
    if (dominated == 0 && !greedy.plan.actions.empty()) {
      std::fprintf(stderr,
                   "[bench_support_frontier] note: %s greedy never beats "
                   "the importance order (plans coincide)\n",
                   row.name.c_str());
    }

    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "%s    {\n      \"name\": \"%s\",\n"
        "      \"initial_completeness\": %.6f,\n"
        "      \"greedy\": { \"final\": %.6f, \"cost\": %.2f, \"actions\": "
        "%zu, \"wall_ms\": %.2f },\n"
        "      \"importance_baseline\": { \"final\": %.6f, \"cost\": %.2f, "
        "\"actions\": %zu, \"wall_ms\": %.2f },\n"
        "      \"dominance\": { \"budget_points_strictly_better\": %zu, "
        "\"max_advantage\": %.6f, \"at_cost\": %.2f },\n"
        "      \"greedy_vs_exact_worst_ratio\": %.4f,\n",
        first_system ? "" : ",\n", row.name.c_str(),
        greedy.plan.initial_completeness, greedy.plan.final_completeness,
        greedy.plan.total_cost, greedy.plan.actions.size(), greedy.wall_ms,
        baseline.final_completeness, baseline.total_cost,
        baseline.actions.size(), base_ms, dominated, max_advantage, at_cost,
        worst_ratio);
    systems_json << buf;
    systems_json << "      \"exact_small_budgets\": [" << exact_json.str()
                 << "\n      ],\n";
    AppendCurveJson(systems_json, "curve_greedy", greedy_curve);
    AppendCurveJson(systems_json, "curve_importance", base_curve,
                    /*last=*/true);
    systems_json << "    }";
    first_system = false;

    std::fprintf(stderr,
                 "[bench_support_frontier] %-22s greedy %.4f -> %.4f "
                 "(cost %.0f, %zu actions, %.1fms), exact worst ratio "
                 "%.3f, dominates baseline at %zu budget points\n",
                 row.name.c_str(), greedy.plan.initial_completeness,
                 greedy.plan.final_completeness, greedy.plan.total_cost,
                 greedy.plan.actions.size(), greedy.wall_ms, worst_ratio,
                 dominated);
  }

  // Audit value: greenfield plan over every API kind, with and without
  // the replay evidence. Same-coverage cost should drop when informed.
  plan::PlannerInput all_kinds;
  all_kinds.dataset = &dataset;
  all_kinds.costs = &costs;
  all_kinds.evidence = evidence;
  TimedPlan informed = RunGreedy(all_kinds);
  plan::PlannerInput blind_input = all_kinds;
  blind_input.evidence = plan::AuditEvidence{};
  TimedPlan blind = RunGreedy(blind_input);
  auto informed_curve = Curve(informed.plan);
  auto blind_curve = Curve(blind.plan);

  std::ostringstream audit_json;
  bool first_target = true;
  for (double target : {0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    double cost_informed = CostToReach(informed_curve, target);
    double cost_blind = CostToReach(blind_curve, target);
    double savings = (cost_informed > 0 && cost_blind > 0)
                         ? 100.0 * (1.0 - cost_informed / cost_blind)
                         : 0.0;
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "%s\n      { \"completeness\": %.2f, \"cost_informed\": "
                  "%.2f, \"cost_blind\": %.2f, \"savings_pct\": %.1f }",
                  first_target ? "" : ",", target, cost_informed,
                  cost_blind, savings);
    audit_json << buf;
    first_target = false;
    if (cost_informed > cost_blind + 1e-6 && cost_blind > 0) {
      std::fprintf(stderr,
                   "[bench_support_frontier] FAIL: informed plan costs "
                   "more (%.1f > %.1f) to reach %.2f\n",
                   cost_informed, cost_blind, target);
      ++failures;
    }
  }

  std::ostringstream os;
  os << "{\n";
  os << "  \"description\": \"Support-planner frontier: completeness vs "
        "implementation cost per Table 6 system (greedy vs exact-small-"
        "budget DP vs importance-order baseline), plus the cost savings "
        "from planning with the differential auditor's dynamic-replay "
        "evidence. Emitted by bench_support_frontier.\",\n";
  os << bench::HostJson();
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "  \"config\": { \"app_packages\": %zu, \"installations\": "
                "%" PRIu64 ", \"packages\": %zu, \"audited_executables\": "
                "%zu, \"observed_apis\": %zu, \"curve_sampling\": \"dense "
                "to 48 points then every 10th\" },\n",
                options.distro.app_package_count,
                options.distro.installation_count, dataset.package_count(),
                study.value().audit ? study.value().audit->executables_audited
                                    : 0,
                evidence.observed.size());
  os << buf;
  os << "  \"systems\": [\n" << systems_json.str() << "\n  ],\n";
  std::snprintf(
      buf, sizeof buf,
      "  \"audit_value\": {\n    \"profile\": \"greenfield, all API "
      "kinds\",\n    \"informed\": { \"final\": %.6f, \"cost\": %.2f, "
      "\"actions\": %zu, \"wall_ms\": %.2f },\n    \"blind\": { \"final\": "
      "%.6f, \"cost\": %.2f, \"actions\": %zu, \"wall_ms\": %.2f },\n",
      informed.plan.final_completeness, informed.plan.total_cost,
      informed.plan.actions.size(), informed.wall_ms,
      blind.plan.final_completeness, blind.plan.total_cost,
      blind.plan.actions.size(), blind.wall_ms);
  os << buf;
  os << "    \"targets\": [" << audit_json.str() << "\n    ]\n  }\n";
  os << "}\n";

  std::string path = EnvStringOr("LAPIS_PLAN_BENCH_JSON", "BENCH_plan.json");
  std::ofstream out(path, std::ios::trunc);
  out << os.str();
  if (!out.good()) {
    std::fprintf(stderr, "failed writing %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "[bench_support_frontier] wrote %s (informed cost %.0f vs "
               "blind %.0f for %.4f completeness, %d failures)\n",
               path.c_str(), informed.plan.total_cost,
               blind.plan.total_cost, informed.plan.final_completeness,
               failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lapis

int main() { return lapis::Run(); }
