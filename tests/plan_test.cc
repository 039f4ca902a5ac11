// Support-planner tests: cost-model defaults + TSV overrides, evidence
// classification, greedy/exact/baseline solvers on hand-built datasets
// with known optima, randomized greedy-vs-exact bounds, partial-support
// curves, and byte-identical plan determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/api_id.h"
#include "src/core/dataset.h"
#include "src/corpus/study_runner.h"
#include "src/plan/cost_model.h"
#include "src/plan/curve.h"
#include "src/plan/evidence.h"
#include "src/plan/planner.h"
#include "src/plan/profiles.h"
#include "src/util/prng.h"

namespace lapis::plan {
namespace {

using core::ApiId;
using core::ApiKind;
using core::FcntlApi;
using core::IoctlApi;
using core::StudyDataset;
using core::SyscallApi;

// ---- Cost model ----

TEST(CostModel, KindDefaults) {
  CostModel costs = CostModel::Defaults();
  EXPECT_DOUBLE_EQ(costs.ActionCost(SyscallApi(0), SupportAction::kFull, 0),
                   10.0);
  EXPECT_DOUBLE_EQ(
      costs.ActionCost(ApiId{ApiKind::kLibcFn, 7}, SupportAction::kFull, 0),
      2.0);
  EXPECT_DOUBLE_EQ(costs.ActionCost(SyscallApi(0), SupportAction::kStub, 0),
                   1.0);
  EXPECT_DOUBLE_EQ(costs.ActionCost(SyscallApi(0), SupportAction::kSkip, 0),
                   0.0);
}

TEST(CostModel, VectoredDemuxAmortizesAcrossBreadth) {
  CostModel costs = CostModel::Defaults();
  // ioctl full base 6 + 8/breadth surcharge.
  double narrow = costs.ActionCost(IoctlApi(1), SupportAction::kFull, 1);
  double wide = costs.ActionCost(IoctlApi(1), SupportAction::kFull, 16);
  EXPECT_DOUBLE_EQ(narrow, 6.0 + 8.0);
  EXPECT_DOUBLE_EQ(wide, 6.0 + 0.5);
  EXPECT_LT(wide, narrow);
}

TEST(CostModel, FakeIsFractionOfFullButAtLeastStub) {
  CostModel costs = CostModel::Defaults();
  double full = costs.ActionCost(SyscallApi(0), SupportAction::kFull, 0);
  EXPECT_DOUBLE_EQ(costs.ActionCost(SyscallApi(0), SupportAction::kFake, 0),
                   full / 3.0);
  // libc full = 2; 2/3 < stub 1 -> clamps to stub cost.
  EXPECT_DOUBLE_EQ(
      costs.ActionCost(ApiId{ApiKind::kLibcFn, 7}, SupportAction::kFake, 0),
      1.0);
}

TEST(CostModel, OverridePrecedence) {
  CostModel costs = CostModel::Defaults();
  costs.SetKindActionCost(ApiKind::kSyscall, SupportAction::kFull, 4.0);
  EXPECT_DOUBLE_EQ(costs.ActionCost(SyscallApi(0), SupportAction::kFull, 0),
                   4.0);
  costs.SetApiActionCost(SyscallApi(0), SupportAction::kFull, 2.5);
  EXPECT_DOUBLE_EQ(costs.ActionCost(SyscallApi(0), SupportAction::kFull, 0),
                   2.5);
  // Per-API beats per-kind; other APIs keep the kind override.
  EXPECT_DOUBLE_EQ(costs.ActionCost(SyscallApi(1), SupportAction::kFull, 0),
                   4.0);
}

TEST(CostModel, TsvOverridesParse) {
  core::StringInterner paths;
  core::StringInterner libc;
  paths.Intern("/proc/self/maps");
  libc.Intern("memcpy");
  CostModel costs = CostModel::Defaults();
  std::istringstream in(
      "# comment line\n"
      "syscall * stub 0.5\n"
      "syscall read full 42\n"
      "ioctl 0x5401 fake 3\n"
      "pseudo /proc/self/maps full 9\n"
      "libc memcpy full 7\n"
      "libc not_interned_anywhere full 99\n");
  ASSERT_TRUE(LoadCostOverridesTsv(in, paths, libc, &costs).ok());
  EXPECT_DOUBLE_EQ(costs.ActionCost(SyscallApi(3), SupportAction::kStub, 0),
                   0.5);
  EXPECT_DOUBLE_EQ(costs.ActionCost(SyscallApi(0), SupportAction::kFull, 0),
                   42.0);  // read = syscall 0
  EXPECT_DOUBLE_EQ(
      costs.ActionCost(IoctlApi(0x5401), SupportAction::kFake, 4), 3.0);
  EXPECT_DOUBLE_EQ(
      costs.ActionCost(ApiId{ApiKind::kPseudoFile, paths.Find(
                                "/proc/self/maps")},
                       SupportAction::kFull, 0),
      9.0);
  EXPECT_DOUBLE_EQ(
      costs.ActionCost(ApiId{ApiKind::kLibcFn, libc.Find("memcpy")},
                       SupportAction::kFull, 0),
      7.0);
}

TEST(CostModel, TsvRejectsUnknownSyscallAndBadLines) {
  core::StringInterner paths, libc;
  CostModel costs = CostModel::Defaults();
  std::istringstream bad_name("syscall not_a_syscall full 1\n");
  EXPECT_FALSE(LoadCostOverridesTsv(bad_name, paths, libc, &costs).ok());
  std::istringstream bad_action("syscall read frobnicate 1\n");
  EXPECT_FALSE(LoadCostOverridesTsv(bad_action, paths, libc, &costs).ok());
  std::istringstream bad_cost("syscall read full -3\n");
  EXPECT_FALSE(LoadCostOverridesTsv(bad_cost, paths, libc, &costs).ok());
  std::istringstream short_line("syscall read full\n");
  EXPECT_FALSE(LoadCostOverridesTsv(short_line, paths, libc, &costs).ok());
}

// ---- Evidence ----

TEST(Evidence, ClassifyAndMinimalAction) {
  AuditEvidence evidence;
  evidence.kinds_mask =
      static_cast<uint8_t>(1u << static_cast<uint8_t>(ApiKind::kSyscall)) |
      static_cast<uint8_t>(1u << static_cast<uint8_t>(ApiKind::kIoctlOp));
  evidence.observed = {SyscallApi(0), IoctlApi(0x5401)};

  EXPECT_EQ(ClassifyApi(evidence, SyscallApi(0)),
            EvidenceClass::kMustImplement);
  EXPECT_EQ(ClassifyApi(evidence, SyscallApi(1)), EvidenceClass::kStubSafe);
  // fcntl kind not instrumented: absence of observation proves nothing.
  EXPECT_EQ(ClassifyApi(evidence, FcntlApi(1)), EvidenceClass::kNoEvidence);
  EXPECT_EQ(ClassifyApi(AuditEvidence{}, SyscallApi(0)),
            EvidenceClass::kNoEvidence);

  EXPECT_EQ(MinimalSufficientAction(EvidenceClass::kMustImplement,
                                    ApiKind::kSyscall),
            SupportAction::kFull);
  EXPECT_EQ(MinimalSufficientAction(EvidenceClass::kMustImplement,
                                    ApiKind::kIoctlOp),
            SupportAction::kFake);
  EXPECT_EQ(
      MinimalSufficientAction(EvidenceClass::kStubSafe, ApiKind::kSyscall),
      SupportAction::kStub);
  EXPECT_EQ(
      MinimalSufficientAction(EvidenceClass::kNoEvidence, ApiKind::kSyscall),
      SupportAction::kFull);
}

// ---- Planner on hand-built datasets ----

// Four packages over a 10k survey (mirrors core_test's MakeDataset):
//   pkg0 "libc"  p=1.0  {0,1}
//   pkg1 "app-a" p=0.5  {0,1,2}, depends on libc
//   pkg2 "app-b" p=0.2  {0,1,3}, depends on libc
//   pkg3 "rare"  p=0.1  {0,1,2,9}, depends on app-a
std::unique_ptr<StudyDataset> MakeDataset() {
  auto ds = std::make_unique<StudyDataset>(4, 10000);
  EXPECT_TRUE(ds->SetPackageName(0, "libc").ok());
  EXPECT_TRUE(ds->SetPackageName(1, "app-a").ok());
  EXPECT_TRUE(ds->SetPackageName(2, "app-b").ok());
  EXPECT_TRUE(ds->SetPackageName(3, "rare").ok());
  EXPECT_TRUE(ds->SetInstallCount(0, 10000).ok());
  EXPECT_TRUE(ds->SetInstallCount(1, 5000).ok());
  EXPECT_TRUE(ds->SetInstallCount(2, 2000).ok());
  EXPECT_TRUE(ds->SetInstallCount(3, 1000).ok());
  EXPECT_TRUE(ds->SetFootprint(0, {SyscallApi(0), SyscallApi(1)}).ok());
  EXPECT_TRUE(
      ds->SetFootprint(1, {SyscallApi(0), SyscallApi(1), SyscallApi(2)})
          .ok());
  EXPECT_TRUE(
      ds->SetFootprint(2, {SyscallApi(0), SyscallApi(1), SyscallApi(3)})
          .ok());
  EXPECT_TRUE(ds->SetFootprint(3, {SyscallApi(0), SyscallApi(1),
                                   SyscallApi(2), SyscallApi(9)})
                  .ok());
  EXPECT_TRUE(ds->SetDependencies(1, {0}).ok());
  EXPECT_TRUE(ds->SetDependencies(2, {0}).ok());
  EXPECT_TRUE(ds->SetDependencies(3, {1}).ok());
  EXPECT_TRUE(ds->Finalize().ok());
  return ds;
}

TEST(GreedyPlan, CoversEverythingUnbounded) {
  auto ds = MakeDataset();
  CostModel costs = CostModel::Defaults();
  PlannerInput input;
  input.dataset = ds.get();
  input.costs = &costs;
  SupportPlan plan = GreedyPlan(input);
  EXPECT_DOUBLE_EQ(plan.initial_completeness, 0.0);
  EXPECT_DOUBLE_EQ(plan.final_completeness, 1.0);
  // Five distinct syscalls {0,1,2,3,9}, all full at cost 10.
  EXPECT_EQ(plan.actions.size(), 5u);
  EXPECT_DOUBLE_EQ(plan.total_cost, 50.0);
  // The first move must be the best gain/cost package closure: libc
  // ({0,1} for weight 1.0); after it pkg0 works.
  EXPECT_DOUBLE_EQ(plan.actions[1].completeness_after, 1.0 / 1.8);
  // Cumulative cost is monotone and matches per-action costs.
  double running = 0.0;
  for (const auto& action : plan.actions) {
    running += action.cost;
    EXPECT_DOUBLE_EQ(action.cumulative_cost, running);
  }
}

TEST(GreedyPlan, RespectsBudgetAndMaxActions) {
  auto ds = MakeDataset();
  CostModel costs = CostModel::Defaults();
  PlannerInput input;
  input.dataset = ds.get();
  input.costs = &costs;
  input.budget = 25.0;  // enough for {0,1} but not a third syscall
  SupportPlan plan = GreedyPlan(input);
  EXPECT_EQ(plan.actions.size(), 2u);
  EXPECT_LE(plan.total_cost, 25.0);

  input.budget = std::numeric_limits<double>::infinity();
  input.max_actions = 3;
  EXPECT_EQ(GreedyPlan(input).actions.size(), 3u);
}

TEST(GreedyPlan, AlreadySupportedRaisesInitialCompleteness) {
  auto ds = MakeDataset();
  CostModel costs = CostModel::Defaults();
  PlannerInput input;
  input.dataset = ds.get();
  input.costs = &costs;
  input.already_supported = {SyscallApi(0), SyscallApi(1)};
  SupportPlan plan = GreedyPlan(input);
  EXPECT_NEAR(plan.initial_completeness, 1.0 / 1.8, 1e-12);
  EXPECT_DOUBLE_EQ(plan.final_completeness, 1.0);
  EXPECT_EQ(plan.actions.size(), 3u);  // syscalls 2, 3, 9 remain
}

TEST(GreedyPlan, StubSafeEvidenceCutsCost) {
  auto ds = MakeDataset();
  CostModel costs = CostModel::Defaults();
  PlannerInput input;
  input.dataset = ds.get();
  input.costs = &costs;
  input.evidence.kinds_mask =
      static_cast<uint8_t>(1u << static_cast<uint8_t>(ApiKind::kSyscall));
  // Replay observed everything except syscall 9 ("rare"'s extra claim).
  input.evidence.observed = {SyscallApi(0), SyscallApi(1), SyscallApi(2),
                             SyscallApi(3)};
  SupportPlan informed = GreedyPlan(input);
  EXPECT_DOUBLE_EQ(informed.final_completeness, 1.0);
  // 4 full (10 each) + 1 stub (1) instead of 5 full.
  EXPECT_DOUBLE_EQ(informed.total_cost, 41.0);
  bool saw_stub = false;
  for (const auto& action : informed.actions) {
    if (action.api == SyscallApi(9)) {
      EXPECT_EQ(action.action, SupportAction::kStub);
      EXPECT_EQ(action.evidence, EvidenceClass::kStubSafe);
      saw_stub = true;
    }
  }
  EXPECT_TRUE(saw_stub);

  PlannerInput blind = input;
  blind.evidence = AuditEvidence{};
  EXPECT_DOUBLE_EQ(GreedyPlan(blind).total_cost, 50.0);
}

TEST(GreedyPlan, WhitelistKeepsBlockedPackagesInDenominator) {
  auto ds = MakeDataset();
  CostModel costs = CostModel::Defaults();
  PlannerInput input;
  input.dataset = ds.get();
  input.costs = &costs;
  // Syscall 9 unavailable: "rare" can never work, so completeness tops
  // out below 1.0 but everything else is still covered.
  input.candidate_whitelist = {SyscallApi(0), SyscallApi(1), SyscallApi(2),
                               SyscallApi(3)};
  SupportPlan plan = GreedyPlan(input);
  EXPECT_EQ(plan.actions.size(), 4u);
  EXPECT_NEAR(plan.final_completeness, 1.7 / 1.8, 1e-12);
}

TEST(ImportanceOrderPlan, IsCostBlindBaseline) {
  auto ds = MakeDataset();
  CostModel costs = CostModel::Defaults();
  // Make syscall 2 absurdly expensive: the importance order still takes
  // it before cheaper lower-importance calls, greedy does not.
  costs.SetApiActionCost(SyscallApi(2), SupportAction::kFull, 1000.0);
  PlannerInput input;
  input.dataset = ds.get();
  input.costs = &costs;
  input.budget = 1050.0;
  SupportPlan baseline = ImportanceOrderPlan(input);
  SupportPlan greedy = GreedyPlan(input);
  ASSERT_FALSE(baseline.actions.empty());
  // Both spend within budget; greedy gets at least as much completeness.
  EXPECT_LE(baseline.total_cost, input.budget);
  EXPECT_GE(greedy.final_completeness, baseline.final_completeness - 1e-12);
}

TEST(ImportanceOrderPlan, GreedyStrictlyBeatsBaselineAtTightBudget) {
  // "big" (p=1.0) needs three syscalls, "small" (p=0.9) needs two. The
  // importance order buys big's syscalls first, exhausts the budget
  // before completing anything; greedy buys small's closure instead.
  auto ds = std::make_unique<StudyDataset>(2, 10000);
  ASSERT_TRUE(ds->SetPackageName(0, "big").ok());
  ASSERT_TRUE(ds->SetPackageName(1, "small").ok());
  ASSERT_TRUE(ds->SetInstallCount(0, 10000).ok());
  ASSERT_TRUE(ds->SetInstallCount(1, 9000).ok());
  ASSERT_TRUE(
      ds->SetFootprint(0, {SyscallApi(2), SyscallApi(3), SyscallApi(4)})
          .ok());
  ASSERT_TRUE(ds->SetFootprint(1, {SyscallApi(0), SyscallApi(1)}).ok());
  ASSERT_TRUE(ds->Finalize().ok());

  CostModel costs = CostModel::Defaults();
  PlannerInput input;
  input.dataset = ds.get();
  input.costs = &costs;
  input.budget = 20.0;  // two full syscalls
  SupportPlan greedy = GreedyPlan(input);
  SupportPlan baseline = ImportanceOrderPlan(input);
  EXPECT_NEAR(greedy.final_completeness, 0.9 / 1.9, 1e-12);
  EXPECT_DOUBLE_EQ(baseline.final_completeness, 0.0);
  EXPECT_GT(greedy.final_completeness,
            baseline.final_completeness + 1e-9);
}

TEST(ExactPlan, MatchesHandOptimum) {
  auto ds = MakeDataset();
  CostModel costs = CostModel::Defaults();
  PlannerInput input;
  input.dataset = ds.get();
  input.costs = &costs;
  input.budget = 20.0;  // optimal: {0,1} -> libc works, completeness 1/1.8
  auto exact = ExactPlan(input);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_NEAR(exact.value().completeness, 1.0 / 1.8, 1e-12);
  EXPECT_LE(exact.value().cost, 20.0 + 1e-9);

  input.budget = 50.0;
  exact = ExactPlan(input);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_NEAR(exact.value().completeness, 1.0, 1e-12);

  // The subset DP is O(2^n): 20 candidates are solved, 21 are rejected
  // rather than silently approximated.
  auto one_package = [](uint32_t apis) {
    auto single = std::make_unique<StudyDataset>(1, 1000);
    EXPECT_TRUE(single->SetPackageName(0, "pkg").ok());
    EXPECT_TRUE(single->SetInstallCount(0, 1000).ok());
    std::vector<ApiId> footprint;
    for (uint32_t nr = 0; nr < apis; ++nr) {
      footprint.push_back(SyscallApi(nr));
    }
    EXPECT_TRUE(single->SetFootprint(0, footprint).ok());
    EXPECT_TRUE(single->Finalize().ok());
    return single;
  };
  auto narrow = one_package(20);
  input.dataset = narrow.get();
  EXPECT_TRUE(ExactPlan(input).ok());
  auto wide = one_package(21);
  input.dataset = wide.get();
  EXPECT_EQ(ExactPlan(input).status().code(), StatusCode::kInvalidArgument);
}

TEST(ExactPlan, GreedyWithinBoundOnRandomInstances) {
  Prng prng(20160418);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t packages = 3 + prng.NextBelow(6);
    auto ds = std::make_unique<StudyDataset>(packages, 10000);
    for (size_t p = 0; p < packages; ++p) {
      ASSERT_TRUE(
          ds->SetPackageName(p, "pkg" + std::to_string(p)).ok());
      ASSERT_TRUE(
          ds->SetInstallCount(p, 100 + prng.NextBelow(9900)).ok());
      std::vector<ApiId> footprint;
      const size_t apis = 1 + prng.NextBelow(5);
      for (size_t a = 0; a < apis; ++a) {
        footprint.push_back(
            SyscallApi(static_cast<uint32_t>(prng.NextBelow(12))));
      }
      ASSERT_TRUE(ds->SetFootprint(p, footprint).ok());
      if (p > 0 && prng.NextBool(0.4)) {
        ASSERT_TRUE(
            ds->SetDependencies(
                  p, {static_cast<core::PackageId>(prng.NextBelow(p))})
                .ok());
      }
    }
    ASSERT_TRUE(ds->Finalize().ok());

    CostModel costs = CostModel::Defaults();
    PlannerInput input;
    input.dataset = ds.get();
    input.costs = &costs;
    input.budget = 10.0 + static_cast<double>(prng.NextBelow(80));
    auto exact = ExactPlan(input);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    SupportPlan greedy = GreedyPlan(input);
    EXPECT_GE(greedy.final_completeness, 0.95 * exact.value().completeness)
        << "trial " << trial << ": greedy " << greedy.final_completeness
        << " vs exact " << exact.value().completeness << " at budget "
        << input.budget;
  }
}

TEST(RestrictToTopApis, ShrinksCandidatesKeepsCosts) {
  auto ds = MakeDataset();
  CostModel costs = CostModel::Defaults();
  PlannerInput input;
  input.dataset = ds.get();
  input.costs = &costs;
  PlannerInput small = RestrictToTopApis(input, 2);
  EXPECT_EQ(small.candidate_whitelist.size(), 2u);
  // The two most important syscalls are 0 and 1 (every package needs
  // them).
  EXPECT_TRUE(small.candidate_whitelist.count(SyscallApi(0)));
  EXPECT_TRUE(small.candidate_whitelist.count(SyscallApi(1)));
  SupportPlan plan = GreedyPlan(small);
  EXPECT_NEAR(plan.final_completeness, 1.0 / 1.8, 1e-12);
}

// ---- Plan TSV ----

TEST(WritePlanTsv, DeterministicBytes) {
  auto ds = MakeDataset();
  CostModel costs = CostModel::Defaults();
  PlannerInput input;
  input.dataset = ds.get();
  input.costs = &costs;
  core::StringInterner paths, libc;
  std::ostringstream a, b;
  WritePlanTsv(GreedyPlan(input), paths, libc, a);
  WritePlanTsv(GreedyPlan(input), paths, libc, b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("rank\tkind\tapi\taction\tclass"),
            std::string::npos);
  EXPECT_NE(a.str().find("\tfull\t"), std::string::npos);
}

// ---- Partial-support curves ----

std::unique_ptr<StudyDataset> MakeIoctlDataset() {
  auto ds = std::make_unique<StudyDataset>(3, 1000);
  EXPECT_TRUE(ds->SetPackageName(0, "term").ok());
  EXPECT_TRUE(ds->SetPackageName(1, "net").ok());
  EXPECT_TRUE(ds->SetPackageName(2, "quiet").ok());
  EXPECT_TRUE(ds->SetInstallCount(0, 1000).ok());
  EXPECT_TRUE(ds->SetInstallCount(1, 500).ok());
  EXPECT_TRUE(ds->SetInstallCount(2, 250).ok());
  EXPECT_TRUE(ds->SetFootprint(0, {IoctlApi(1), IoctlApi(2)}).ok());
  EXPECT_TRUE(ds->SetFootprint(1, {IoctlApi(1), IoctlApi(3)}).ok());
  // "quiet" uses no ioctls at all: zero-weight from the curve's view.
  EXPECT_TRUE(ds->SetFootprint(2, {SyscallApi(0)}).ok());
  EXPECT_TRUE(ds->Finalize().ok());
  return ds;
}

TEST(PartialSupportCurve, MonotoneAndClamped) {
  auto ds = MakeIoctlDataset();
  auto curve = PartialSupportCurve(*ds, ApiKind::kIoctlOp, {0, 1, 2, 3, 99});
  ASSERT_EQ(curve.size(), 5u);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].weighted_completeness,
              curve[i - 1].weighted_completeness);
  }
  // With no ioctls supported only "quiet" works: 0.25 / 1.75.
  EXPECT_NEAR(curve[0].weighted_completeness, 0.25 / 1.75, 1e-12);
  // All three distinct ops supported -> everything works; the oversized
  // checkpoint clamps to the same point.
  EXPECT_DOUBLE_EQ(curve[3].weighted_completeness, 1.0);
  EXPECT_DOUBLE_EQ(curve[4].weighted_completeness, 1.0);
  EXPECT_EQ(curve[4].supported_count, 3u);
}

TEST(PartialSupportCurve, DuplicateUniverseEntriesCollapse) {
  auto ds = MakeIoctlDataset();
  std::vector<ApiId> universe = {IoctlApi(1), IoctlApi(1), IoctlApi(2),
                                 IoctlApi(3), IoctlApi(3)};
  auto with_dupes =
      PartialSupportCurve(*ds, ApiKind::kIoctlOp, {0, 1, 2, 3}, universe);
  auto plain = PartialSupportCurve(*ds, ApiKind::kIoctlOp, {0, 1, 2, 3});
  ASSERT_EQ(with_dupes.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_DOUBLE_EQ(with_dupes[i].weighted_completeness,
                     plain[i].weighted_completeness);
  }
}

TEST(PartialSupportCurve, IoctlCheckpointsAreSortedWithPaperPoints) {
  const auto& checkpoints = IoctlCurveCheckpoints();
  ASSERT_FALSE(checkpoints.empty());
  for (size_t i = 1; i < checkpoints.size(); ++i) {
    EXPECT_LT(checkpoints[i - 1], checkpoints[i]);
  }
  // The §2 landmarks: the 52-op universal block and the 635-op tail.
  EXPECT_NE(std::find(checkpoints.begin(), checkpoints.end(), 52u),
            checkpoints.end());
  EXPECT_NE(std::find(checkpoints.begin(), checkpoints.end(), 635u),
            checkpoints.end());
}

// ---- Profiles ----

TEST(Profiles, ResolveByNameSubstringAndErrors) {
  auto ds = MakeDataset();
  auto none = ResolveSystemProfile(*ds, "none");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().supported.empty());
  EXPECT_EQ(none.value().evaluated_kinds.size(), 1u);

  auto all = ResolveSystemProfile(*ds, "all");
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all.value().evaluated_kinds.empty());

  auto freebsd = ResolveSystemProfile(*ds, "freebsd");
  ASSERT_TRUE(freebsd.ok());
  EXPECT_EQ(freebsd.value().name, "FreeBSD-emu 10.2");

  // Exact (case-insensitive) match wins over the substring ambiguity.
  auto graphene = ResolveSystemProfile(*ds, "graphene");
  ASSERT_TRUE(graphene.ok());
  EXPECT_EQ(graphene.value().name, "Graphene");

  EXPECT_FALSE(ResolveSystemProfile(*ds, "plan9").ok());
  EXPECT_FALSE(ResolveSystemProfile(*ds, "l").ok());  // ambiguous
}

// ---- End-to-end determinism across --jobs ----

TEST(PlanDeterminism, ByteIdenticalTsvAcrossJobCounts) {
  auto run = [](size_t jobs) {
    corpus::StudyOptions options;
    options.distro.app_package_count = 300;
    options.distro.installation_count = 20000;
    options.jobs = jobs;
    options.audit = true;
    auto study = corpus::RunStudy(options);
    EXPECT_TRUE(study.ok());
    CostModel costs = CostModel::Defaults();
    PlannerInput input;
    input.dataset = study.value().dataset.get();
    input.costs = &costs;
    input.evidence.kinds_mask = study.value().evidence_kinds_mask;
    input.evidence.observed = study.value().evidence_observed;
    input.max_actions = 64;
    std::ostringstream os;
    WritePlanTsv(GreedyPlan(input), study.value().path_interner,
                 study.value().libc_interner, os);
    return os.str();
  };
  std::string sequential = run(1);
  std::string parallel = run(4);
  EXPECT_FALSE(sequential.empty());
  EXPECT_EQ(sequential, parallel);
}

}  // namespace
}  // namespace lapis::plan
