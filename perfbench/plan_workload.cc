// The planner probe of a traced serve_mixed run: GreedyPlan over the
// served artifact for the five Table 6 systems (syscall kind) plus a
// greenfield all-kinds plan, audit-informed and single-threaded, as
// lapis_plan runs them.

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/cache/content_hash.h"
#include "src/corpus/dataset_io.h"
#include "src/plan/cost_model.h"
#include "src/plan/planner.h"
#include "src/plan/profiles.h"
#include "src/runtime/stage_stats.h"

namespace lapis::perfbench {

namespace {

using runtime::MonotonicSeconds;

// Enough batches for a median and a determinism check.
constexpr size_t kPlanBatches = 3;

struct PlanProfile {
  const char* query;  // as passed to lapis_plan --profile
  const char* slug;   // metric-name suffix
};

constexpr PlanProfile kProfiles[] = {
    {"User-Mode-Linux 3.19", "uml"},
    {"L4Linux 4.3", "l4linux"},
    {"FreeBSD-emu 10.2", "freebsd"},
    {"Graphene", "graphene"},
    {"Graphene (+sched)", "graphene_sched"},
    {"all", "all"},
};

}  // namespace

Status MeasurePlanLayer(const MeasureOptions& options, Report& report) {
  Tracer& tracer = *options.tracer;
  LAPIS_ASSIGN_OR_RETURN(auto artifact, corpus::LoadStudy(kArtifactFile));
  const core::StudyDataset& dataset = *artifact.dataset;
  if (artifact.evidence_kinds_mask == 0) {
    return FailedPreconditionError("artifact carries no audit evidence");
  }
  const plan::CostModel costs = plan::CostModel::Defaults();

  std::map<std::string, std::string> reference_tsv;
  std::map<std::string, std::vector<double>> greedy_ms;
  std::vector<double> batch_s;
  uint64_t failed = 0, plans = 0;
  size_t actions = 0;

  for (size_t batch = 1; batch <= kPlanBatches; ++batch) {
    ScopedSpan batch_span(tracer, "plan.batch", batch);
    const double start = MonotonicSeconds();
    std::vector<std::pair<std::string, plan::SupportPlan>> results;
    for (const PlanProfile& profile : kProfiles) {
      Result<core::SystemProfile> system = [&] {
        ScopedSpan span(tracer, "plan.profile");
        return plan::ResolveSystemProfile(dataset, profile.query);
      }();
      if (!system.ok()) {
        return system.status();
      }
      plan::PlannerInput input;
      input.dataset = &dataset;
      input.costs = &costs;
      input.already_supported = std::move(system.value().supported);
      input.evaluated_kinds = std::move(system.value().evaluated_kinds);
      input.evidence.kinds_mask = artifact.evidence_kinds_mask;
      input.evidence.observed = artifact.evidence_observed;
      double greedy_start = MonotonicSeconds();
      plan::SupportPlan result = [&] {
        ScopedSpan span(tracer, "plan.greedy");
        return plan::GreedyPlan(input);
      }();
      greedy_ms[profile.slug].push_back(
          (MonotonicSeconds() - greedy_start) * 1e3);
      results.emplace_back(profile.slug, std::move(result));
    }
    std::map<std::string, std::string> tsv;
    for (const auto& [slug, result] : results) {
      ScopedSpan span(tracer, "plan.tsv");
      std::ostringstream os;
      plan::WritePlanTsv(result, artifact.path_interner,
                         artifact.libc_interner, os);
      tsv[slug] = os.str();
    }
    batch_s.push_back(MonotonicSeconds() - start);

    // Correctness: plans are deterministic, and every plan is unbounded,
    // so each must reach full completeness.
    for (const auto& [slug, result] : results) {
      ++plans;
      std::string problem;
      if (result.final_completeness < 1.0 - 1e-12) {
        problem = "final completeness below 1.0";
      } else if (reference_tsv.count(slug) == 0) {
        reference_tsv[slug] = tsv[slug];
      } else if (reference_tsv[slug] != tsv[slug]) {
        problem = "plan TSV differs from the first batch";
      }
      if (!problem.empty()) {
        ++failed;
        std::fprintf(stderr, "perfbench: plan %s: %s\n", slug.c_str(),
                     problem.c_str());
      }
    }
    actions = 0;
    for (const auto& [slug, result] : results) {
      actions += result.actions.size();
    }
  }

  report.Attempt(plans, failed);
  report.Metric("plan.batch_ms", Median(batch_s) * 1e3, "ms");
  std::string digests;
  for (const auto& [slug, text] : reference_tsv) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(cache::HashString(text)));
    digests += (digests.empty() ? "" : " ") + slug + "=" + hex;
  }
  report.Info("plan_tsv_digests", digests);
  for (const auto& [slug, samples] : greedy_ms) {
    report.Metric("plan.greedy_ms." + slug, Median(samples), "ms");
  }
  report.Metric("plan.actions", static_cast<double>(actions), "count");
  return Status::Ok();
}

}  // namespace lapis::perfbench
