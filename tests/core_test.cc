// Metric-core tests against hand-built datasets with known closed-form
// answers (paper Appendix A formulas).

#include <gtest/gtest.h>

#include <memory>

#include "src/core/api_id.h"
#include "src/core/completeness.h"
#include "src/core/dataset.h"
#include "src/core/diff.h"
#include "src/core/libc_analysis.h"
#include "src/core/systems.h"
#include "src/util/prng.h"

namespace lapis::core {
namespace {

// Four packages over a 10k-installation survey:
//   pkg0 "libc"  p=1.0   uses syscalls {0,1}
//   pkg1 "app-a" p=0.5   uses {0,1,2}, depends on libc
//   pkg2 "app-b" p=0.2   uses {0,1,3}, depends on libc
//   pkg3 "rare"  p=0.1   uses {0,1,2,9}, depends on app-a
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

TEST(ApiId, EncodeDecodeRoundTrip) {
  for (ApiId api : {SyscallApi(0), SyscallApi(319), IoctlApi(0x80045430),
                    FcntlApi(1030), PrctlApi(15),
                    ApiId{ApiKind::kPseudoFile, 12},
                    ApiId{ApiKind::kLibcFn, 1273}}) {
    EXPECT_EQ(ApiId::Decode(api.Encode()), api);
  }
}

TEST(ApiId, Ordering) {
  EXPECT_LT(SyscallApi(5), SyscallApi(6));
  EXPECT_LT(SyscallApi(319), IoctlApi(0));
}

TEST(StringInterner, InternFindName) {
  StringInterner interner;
  uint32_t a = interner.Intern("alpha");
  uint32_t b = interner.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Intern("alpha"), a);
  EXPECT_EQ(interner.Find("beta"), b);
  EXPECT_EQ(interner.Find("gamma"), UINT32_MAX);
  EXPECT_EQ(interner.NameOf(a), "alpha");
  EXPECT_EQ(interner.size(), 2u);
}

TEST(StringInterner, NamesStayPutAcrossGrowthAndMove) {
  StringInterner interner;
  const uint32_t id = interner.Intern("alpha");
  const std::string* name = &interner.NameOf(id);
  for (int i = 0; i < 10000; ++i) {
    interner.Intern("name_" + std::to_string(i));
  }
  EXPECT_EQ(&interner.NameOf(id), name);
  StringInterner moved(std::move(interner));
  EXPECT_EQ(&moved.NameOf(id), name);
  StringInterner assigned;
  assigned = std::move(moved);
  EXPECT_EQ(&assigned.NameOf(id), name);
  EXPECT_EQ(assigned.Find("alpha"), id);
  EXPECT_EQ(assigned.Find("name_9999"), 10000u);
}

TEST(StudyDataset, ImportanceFormula) {
  auto ds = MakeDataset();
  // syscall 0: used by everything incl. libc (p=1) -> importance 1.
  EXPECT_DOUBLE_EQ(ds->ApiImportance(SyscallApi(0)), 1.0);
  // syscall 2: app-a (0.5) and rare (0.1): 1 - 0.5*0.9 = 0.55.
  EXPECT_NEAR(ds->ApiImportance(SyscallApi(2)), 0.55, 1e-12);
  // syscall 3: app-b only: 0.2.
  EXPECT_NEAR(ds->ApiImportance(SyscallApi(3)), 0.2, 1e-12);
  // syscall 9: rare only: 0.1.
  EXPECT_NEAR(ds->ApiImportance(SyscallApi(9)), 0.1, 1e-12);
  // unused syscall: 0.
  EXPECT_DOUBLE_EQ(ds->ApiImportance(SyscallApi(42)), 0.0);
}

TEST(StudyDataset, UnweightedImportance) {
  auto ds = MakeDataset();
  EXPECT_DOUBLE_EQ(ds->UnweightedImportance(SyscallApi(0)), 1.0);
  EXPECT_DOUBLE_EQ(ds->UnweightedImportance(SyscallApi(2)), 0.5);
  EXPECT_DOUBLE_EQ(ds->UnweightedImportance(SyscallApi(9)), 0.25);
}

TEST(StudyDataset, Dependents) {
  auto ds = MakeDataset();
  auto deps = ds->Dependents(SyscallApi(2));
  EXPECT_EQ(std::set<PackageId>(deps.begin(), deps.end()),
            (std::set<PackageId>{1, 3}));
  EXPECT_TRUE(ds->Dependents(SyscallApi(100)).empty());
}

TEST(StudyDataset, RankByImportance) {
  auto ds = MakeDataset();
  auto ranked = ds->RankByImportance(ApiKind::kSyscall);
  ASSERT_EQ(ranked.size(), 5u);
  EXPECT_EQ(ranked[0], SyscallApi(0));  // tie 0/1 broken by code
  EXPECT_EQ(ranked[1], SyscallApi(1));
  EXPECT_EQ(ranked[2], SyscallApi(2));
  EXPECT_EQ(ranked[3], SyscallApi(3));
  EXPECT_EQ(ranked[4], SyscallApi(9));
}

TEST(StudyDataset, RankWithUniverseIncludesUnused) {
  auto ds = MakeDataset();
  auto ranked =
      ds->RankByImportance(ApiKind::kSyscall, {SyscallApi(7)});
  ASSERT_EQ(ranked.size(), 6u);
  EXPECT_EQ(ranked[5], SyscallApi(7));  // zero importance lands last
}

TEST(StudyDataset, ConstructionGuards) {
  StudyDataset ds(2, 100);
  EXPECT_FALSE(ds.SetInstallCount(5, 1).ok());
  EXPECT_FALSE(ds.SetInstallCount(0, 101).ok());
  EXPECT_FALSE(ds.SetDependencies(0, {9}).ok());
  ASSERT_TRUE(ds.Finalize().ok());
  EXPECT_FALSE(ds.Finalize().ok());
  EXPECT_FALSE(ds.SetInstallCount(0, 1).ok());
  // The dense entry takes only offsets that cover its ids in order.
  StudyDataset dense(2, 100);
  const std::vector<ApiId> used = {SyscallApi(0)};
  EXPECT_FALSE(dense.FinalizeDense(used, {0, 1}, {0}).ok());
  EXPECT_FALSE(dense.FinalizeDense(used, {0, 2, 1}, {0}).ok());
  ASSERT_TRUE(dense.FinalizeDense(used, {0, 1, 1}, {0}).ok());
  EXPECT_EQ(dense.Dependents(SyscallApi(0)).size(), 1u);
  EXPECT_FALSE(dense.FinalizeDense(used, {0, 1, 1}, {0}).ok());
}

TEST(StudyDataset, FindPackage) {
  auto ds = MakeDataset();
  EXPECT_EQ(ds->FindPackage("app-a"), 1u);
  EXPECT_EQ(ds->FindPackage("zzz"), UINT32_MAX);
}

// ---------------- Dependency closure ----------------
//
// Dependency poisoning walks StudyDataset::DependencyClosure, so a closure
// that misses, repeats or loops over a member changes every completeness
// figure (and Table 12's row count).

// `count` packages, every one installed on `installs[id]` of 100
// installations (all of them when `installs` is empty), with the given
// direct dependency edges. Left unfinalized so callers can add footprints.
std::unique_ptr<StudyDataset> MakeGraph(
    PackageId count, const std::vector<std::pair<PackageId, PackageId>>& edges,
    const std::vector<uint64_t>& installs = {}) {
  auto ds = std::make_unique<StudyDataset>(count, 100);
  std::vector<std::vector<PackageId>> depends(count);
  for (const auto& [from, to] : edges) {
    depends[from].push_back(to);
  }
  for (PackageId id = 0; id < count; ++id) {
    EXPECT_TRUE(
        ds->SetInstallCount(id, installs.empty() ? 100 : installs[id]).ok());
    EXPECT_TRUE(ds->SetDependencies(id, depends[id]).ok());
  }
  return ds;
}

std::set<PackageId> ClosureOf(const StudyDataset& ds, PackageId id) {
  const std::span<const PackageId> closure = ds.DependencyClosure(id);
  std::set<PackageId> members(closure.begin(), closure.end());
  EXPECT_EQ(members.size(), closure.size())
      << "package " << id << " lists a closure member twice";
  return members;
}

TEST(DependencyClosure, LinearChain) {
  auto ds = MakeGraph(3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(ds->Finalize().ok());
  EXPECT_EQ(ClosureOf(*ds, 0), (std::set<PackageId>{0, 1, 2}));
  EXPECT_EQ(ClosureOf(*ds, 1), (std::set<PackageId>{1, 2}));
  EXPECT_EQ(ClosureOf(*ds, 2), (std::set<PackageId>{2}));
}

TEST(DependencyClosure, DiamondListsSharedDependencyOnce) {
  // 0 -> {1, 2} -> 3.
  auto ds = MakeGraph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  ASSERT_TRUE(ds->Finalize().ok());
  EXPECT_EQ(ClosureOf(*ds, 0), (std::set<PackageId>{0, 1, 2, 3}));
  EXPECT_EQ(ClosureOf(*ds, 1), (std::set<PackageId>{1, 3}));
}

TEST(DependencyClosure, CycleMembersShareOneClosure) {
  // 0 <-> 1 cycle; 2 -> 0.
  auto ds = MakeGraph(3, {{0, 1}, {1, 0}, {2, 0}});
  ASSERT_TRUE(ds->Finalize().ok());
  EXPECT_EQ(ClosureOf(*ds, 0), (std::set<PackageId>{0, 1}));
  EXPECT_EQ(ClosureOf(*ds, 1), (std::set<PackageId>{0, 1}));
  EXPECT_EQ(ClosureOf(*ds, 2), (std::set<PackageId>{0, 1, 2}));
}

TEST(DependencyClosure, SelfLoopAndIsolatedPackage) {
  auto ds = MakeGraph(2, {{0, 0}});
  ASSERT_TRUE(ds->Finalize().ok());
  EXPECT_EQ(ClosureOf(*ds, 0), (std::set<PackageId>{0}));
  EXPECT_EQ(ClosureOf(*ds, 1), (std::set<PackageId>{1}));
}

// ---------------- Weighted completeness ----------------

TEST(Completeness, FullSupportIsOne) {
  auto ds = MakeDataset();
  std::set<ApiId> all = {SyscallApi(0), SyscallApi(1), SyscallApi(2),
                         SyscallApi(3), SyscallApi(9)};
  EXPECT_NEAR(WeightedCompleteness(*ds, all), 1.0, 1e-12);
}

TEST(Completeness, EmptySupportIsZero) {
  auto ds = MakeDataset();
  EXPECT_NEAR(WeightedCompleteness(*ds, {}), 0.0, 1e-12);
}

TEST(Completeness, PartialSupportWeighted) {
  auto ds = MakeDataset();
  // Support {0,1}: only libc works. Total weight = 1.0+0.5+0.2+0.1 = 1.8.
  EXPECT_NEAR(WeightedCompleteness(*ds, {SyscallApi(0), SyscallApi(1)}),
              1.0 / 1.8, 1e-12);
  // Add 2: app-a and rare still blocked (rare needs 9) -> libc + app-a.
  EXPECT_NEAR(WeightedCompleteness(
                  *ds, {SyscallApi(0), SyscallApi(1), SyscallApi(2)}),
              1.5 / 1.8, 1e-12);
}

TEST(Completeness, DependencyPoisoning) {
  // If libc itself is unsupported, everything depending on it fails.
  auto ds = MakeDataset();
  // Support everything except syscall 1 (in libc's footprint).
  std::set<ApiId> support = {SyscallApi(0), SyscallApi(2), SyscallApi(3),
                             SyscallApi(9)};
  EXPECT_NEAR(WeightedCompleteness(*ds, support), 0.0, 1e-12);
  auto flags = SupportedPackages(*ds, support);
  EXPECT_FALSE(flags[0]);
  EXPECT_FALSE(flags[1]);  // poisoned via dependency
  EXPECT_FALSE(flags[3]);  // transitively poisoned
}

TEST(Completeness, EvaluateSupportFlagsAndWeightAgree) {
  auto ds = MakeDataset();
  const std::vector<std::set<ApiId>> supports = {
      {},
      {SyscallApi(0), SyscallApi(1)},
      {SyscallApi(0), SyscallApi(1), SyscallApi(2)},
      {SyscallApi(0), SyscallApi(2), SyscallApi(3), SyscallApi(9)},
      {SyscallApi(0), SyscallApi(1), SyscallApi(2), SyscallApi(3),
       SyscallApi(9)}};
  for (const auto& support : supports) {
    SupportEvaluation eval = EvaluateSupport(*ds, support);
    ASSERT_EQ(eval.supported_packages.size(), ds->package_count());
    // The weight is the install-weighted share of the flagged packages.
    double flagged = 0.0;
    double total = 0.0;
    for (PackageId id = 0; id < ds->package_count(); ++id) {
      total += ds->InstallProbability(id);
      if (eval.supported_packages[id]) {
        flagged += ds->InstallProbability(id);
      }
    }
    EXPECT_EQ(eval.weighted_completeness, flagged / total);
    // The public views are exactly the kernel's two outputs.
    EXPECT_EQ(SupportedPackages(*ds, support), eval.supported_packages);
    EXPECT_EQ(WeightedCompleteness(*ds, support), eval.weighted_completeness);
  }
  EXPECT_EQ(
      EvaluateSupport(*ds, {SyscallApi(0), SyscallApi(1), SyscallApi(2)})
          .supported_packages,
      (std::vector<bool>{true, true, false, false}));
}

TEST(Completeness, CyclePoisonsEveryMemberAndDependent) {
  // 0 <-> 1 cycle, 2 -> 0, 3 isolated; only pkg1 needs syscall 5.
  auto ds = MakeGraph(4, {{0, 1}, {1, 0}, {2, 0}}, {10, 20, 30, 40});
  ASSERT_TRUE(ds->SetFootprint(1, {SyscallApi(5)}).ok());
  ASSERT_TRUE(ds->Finalize().ok());
  SupportEvaluation without = EvaluateSupport(*ds, {});
  EXPECT_EQ(without.supported_packages,
            (std::vector<bool>{false, false, false, true}));
  EXPECT_NEAR(without.weighted_completeness, 0.4, 1e-12);
  SupportEvaluation with = EvaluateSupport(*ds, {SyscallApi(5)});
  EXPECT_EQ(with.supported_packages, (std::vector<bool>(4, true)));
  EXPECT_NEAR(with.weighted_completeness, 1.0, 1e-12);
}

TEST(Completeness, DiamondCountsEachPackageWeightOnce) {
  // 0 -> {1, 2} -> 3, installed on 10/20/30/40 of 100 machines.
  auto ds =
      MakeGraph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}, {10, 20, 30, 40});
  ASSERT_TRUE(ds->SetFootprint(1, {SyscallApi(1)}).ok());
  ASSERT_TRUE(ds->SetFootprint(3, {SyscallApi(3)}).ok());
  ASSERT_TRUE(ds->Finalize().ok());
  // The shared dependency unsupported: the whole diamond fails.
  EXPECT_NEAR(WeightedCompleteness(*ds, {SyscallApi(1)}), 0.0, 1e-12);
  // One arm unsupported: it and the top fail; the other arm and the
  // bottom count once each, (30 + 40) / 100.
  SupportEvaluation eval = EvaluateSupport(*ds, {SyscallApi(3)});
  EXPECT_EQ(eval.supported_packages,
            (std::vector<bool>{false, false, true, true}));
  EXPECT_NEAR(eval.weighted_completeness, 0.7, 1e-12);
}

TEST(Completeness, DeepDependencyChainPoisonsEveryAncestor) {
  // 0 -> 1 -> ... -> 1999; only the tail needs syscall 1.
  constexpr PackageId kDepth = 2000;
  std::vector<std::pair<PackageId, PackageId>> edges;
  for (PackageId id = 0; id + 1 < kDepth; ++id) {
    edges.emplace_back(id, id + 1);
  }
  auto ds = MakeGraph(kDepth, edges);
  ASSERT_TRUE(ds->SetFootprint(kDepth - 1, {SyscallApi(1)}).ok());
  ASSERT_TRUE(ds->Finalize().ok());
  EXPECT_EQ(ds->DependencyClosure(0).size(), kDepth);
  SupportEvaluation without = EvaluateSupport(*ds, {});
  EXPECT_EQ(without.supported_packages, std::vector<bool>(kDepth, false));
  EXPECT_EQ(without.weighted_completeness, 0.0);
  EXPECT_NEAR(WeightedCompleteness(*ds, {SyscallApi(1)}), 1.0, 1e-12);
}

TEST(Completeness, ZeroInstallationSurveyWeighsNothing) {
  // No installation reported: flags are still computed, the weight is 0.
  auto ds = std::make_unique<StudyDataset>(2, 0);
  ASSERT_TRUE(ds->SetFootprint(0, {SyscallApi(0)}).ok());
  ASSERT_TRUE(ds->SetFootprint(1, {SyscallApi(1)}).ok());
  ASSERT_TRUE(ds->Finalize().ok());
  SupportEvaluation eval = EvaluateSupport(*ds, {SyscallApi(0)});
  EXPECT_EQ(eval.supported_packages, (std::vector<bool>{true, false}));
  EXPECT_EQ(eval.weighted_completeness, 0.0);
}

TEST(Completeness, KindFilterIgnoresOtherKinds) {
  auto ds = std::make_unique<StudyDataset>(1, 100);
  ASSERT_TRUE(ds->SetInstallCount(0, 100).ok());
  ASSERT_TRUE(
      ds->SetFootprint(0, {SyscallApi(0), IoctlApi(0x5401)}).ok());
  ASSERT_TRUE(ds->Finalize().ok());
  CompletenessOptions syscalls_only;
  syscalls_only.evaluated_kinds = {ApiKind::kSyscall};
  // The unsupported ioctl op does not matter under the filter.
  EXPECT_NEAR(
      WeightedCompleteness(*ds, {SyscallApi(0)}, syscalls_only), 1.0, 1e-12);
  // Without the filter it does.
  EXPECT_NEAR(WeightedCompleteness(*ds, {SyscallApi(0)}), 0.0, 1e-12);
}

// The kernel against the definition (§2.2, §A.2), applied entry by entry:
// a package is self-supported iff every footprint entry of an evaluated
// kind is in `supported`, and supported iff every member of its closure is
// self-supported; the weight sums in package-id order. Seeded random
// datasets cover all six kinds and a dependency cycle; the supported sets
// include APIs no footprint uses, and the kind sets include the empty set
// (every kind evaluated).
TEST(Completeness, KernelMatchesDefinition) {
  Prng prng(20160418);
  constexpr uint32_t kUsedCodes = 12;  // codes 12 and 13 are never used
  constexpr double kDensities[] = {0.3, 0.7, 0.95, 1.0};
  for (int trial = 0; trial < 12; ++trial) {
    const PackageId count = 50 + static_cast<PackageId>(prng.NextBelow(40));
    std::vector<std::pair<PackageId, PackageId>> edges = {
        {0, 1}, {1, 2}, {2, 0}};
    std::vector<uint64_t> installs(count);
    for (PackageId id = 0; id < count; ++id) {
      for (uint64_t e = prng.NextBelow(3); e > 0; --e) {
        edges.emplace_back(id,
                           static_cast<PackageId>(prng.NextBelow(count)));
      }
      installs[id] = prng.NextBelow(101);
    }
    auto ds = MakeGraph(count, edges, installs);
    std::vector<std::vector<ApiId>> footprints(count);
    for (PackageId id = 0; id < count; ++id) {
      for (uint64_t i = prng.NextBelow(9); i > 0; --i) {
        footprints[id].push_back(
            ApiId{static_cast<ApiKind>(prng.NextBelow(kApiKindCount)),
                  static_cast<uint32_t>(prng.NextBelow(kUsedCodes))});
      }
      ASSERT_TRUE(ds->SetFootprint(id, footprints[id]).ok());
    }
    ASSERT_TRUE(ds->Finalize().ok());

    for (int draw = 0; draw < 16; ++draw) {
      const double density = kDensities[draw % 4];
      std::set<ApiId> supported;
      for (int k = 0; k < kApiKindCount; ++k) {
        for (uint32_t code = 0; code < kUsedCodes + 2; ++code) {
          if (prng.NextBool(density)) {
            supported.insert(ApiId{static_cast<ApiKind>(k), code});
          }
        }
      }
      CompletenessOptions options;
      for (int k = 0; k < kApiKindCount && draw >= 4; ++k) {
        if (prng.NextBool(0.4)) {
          options.evaluated_kinds.insert(static_cast<ApiKind>(k));
        }
      }

      std::vector<bool> self_ok(count, true);
      for (PackageId id = 0; id < count; ++id) {
        for (const ApiId& api : footprints[id]) {
          if (!options.evaluated_kinds.empty() &&
              !options.evaluated_kinds.contains(api.kind)) {
            continue;
          }
          if (!supported.contains(api)) {
            self_ok[id] = false;
            break;
          }
        }
      }
      std::vector<bool> flags(count);
      double supported_weight = 0.0;
      double total_weight = 0.0;
      for (PackageId id = 0; id < count; ++id) {
        const double p = ds->InstallProbability(id);
        total_weight += p;
        bool ok = true;
        for (PackageId member : ds->DependencyClosure(id)) {
          ok = ok && self_ok[member];
        }
        flags[id] = ok;
        if (ok) {
          supported_weight += p;
        }
      }
      const double expected =
          total_weight == 0.0 ? 0.0 : supported_weight / total_weight;

      SupportEvaluation eval = EvaluateSupport(*ds, supported, options);
      EXPECT_EQ(eval.supported_packages, flags)
          << "trial " << trial << " draw " << draw;
      EXPECT_EQ(eval.weighted_completeness, expected)
          << "trial " << trial << " draw " << draw;
    }
  }
}

TEST(Completeness, GreedyPathMonotoneAndExact) {
  auto ds = MakeDataset();
  auto path = GreedyCompletenessPath(*ds, ApiKind::kSyscall);
  ASSERT_EQ(path.size(), 5u);
  // After {0,1}: libc works -> 1/1.8.
  EXPECT_NEAR(path[1].weighted_completeness, 1.0 / 1.8, 1e-12);
  // After {0,1,2}: +app-a -> 1.5/1.8.
  EXPECT_NEAR(path[2].weighted_completeness, 1.5 / 1.8, 1e-12);
  // After {0,1,2,3}: +app-b -> 1.7/1.8.
  EXPECT_NEAR(path[3].weighted_completeness, 1.7 / 1.8, 1e-12);
  EXPECT_NEAR(path[4].weighted_completeness, 1.0, 1e-12);
  for (size_t i = 1; i < path.size(); ++i) {
    EXPECT_GE(path[i].weighted_completeness,
              path[i - 1].weighted_completeness);
  }
}

// pkg0 (p=0.5) uses syscall 4; pkg1 (p=0.5) and pkg2 (p=0) use syscall 6:
// both syscalls have importance 0.5, and 6 ranks first because more
// packages use it. pkg2 also needs ioctl op 0x5401 and depends on pkg0.
std::unique_ptr<StudyDataset> MakeTieDataset() {
  auto ds = MakeGraph(3, {{2, 0}}, {50, 50, 0});
  EXPECT_TRUE(ds->SetFootprint(0, {SyscallApi(4)}).ok());
  EXPECT_TRUE(ds->SetFootprint(1, {SyscallApi(6)}).ok());
  EXPECT_TRUE(ds->SetFootprint(2, {SyscallApi(6), IoctlApi(0x5401)}).ok());
  EXPECT_TRUE(ds->Finalize().ok());
  return ds;
}

TEST(Completeness, SingleKindPathIsTheMultiKindPathOverThatKind) {
  auto tie = MakeTieDataset();
  auto hand = MakeDataset();
  const std::vector<ApiId> universe = {SyscallApi(7), SyscallApi(2)};
  for (const StudyDataset* ds : {tie.get(), hand.get()}) {
    for (ApiKind kind : {ApiKind::kSyscall, ApiKind::kIoctlOp}) {
      auto single = GreedyCompletenessPath(*ds, kind, universe);
      auto multi = GreedyCompletenessPathMultiKind(*ds, {kind}, universe);
      ASSERT_EQ(single.size(), multi.size());
      for (size_t i = 0; i < single.size(); ++i) {
        EXPECT_EQ(single[i].api, multi[i].api) << i;
        EXPECT_EQ(single[i].importance, multi[i].importance) << i;
        EXPECT_EQ(single[i].weighted_completeness,
                  multi[i].weighted_completeness)
            << i;
      }
    }
  }
  // The importance tie falls to the unweighted importance, not the id.
  auto path = GreedyCompletenessPath(*tie, ApiKind::kSyscall);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0].api, SyscallApi(6));
  EXPECT_EQ(path[1].api, SyscallApi(4));
  EXPECT_EQ(path[0].importance, path[1].importance);
}

TEST(Completeness, GreedyPathMatchesKernelAtEveryPrefix) {
  auto tie = MakeTieDataset();
  auto hand = MakeDataset();
  const std::set<ApiKind> both = {ApiKind::kSyscall, ApiKind::kIoctlOp};
  for (const StudyDataset* ds : {tie.get(), hand.get()}) {
    for (const std::set<ApiKind>& kinds :
         {std::set<ApiKind>{ApiKind::kSyscall}, both}) {
      CompletenessOptions options;
      options.evaluated_kinds = kinds;
      std::set<ApiId> prefix;
      for (const PathPoint& point :
           GreedyCompletenessPathMultiKind(*ds, kinds)) {
        prefix.insert(point.api);
        EXPECT_EQ(point.weighted_completeness,
                  EvaluateSupport(*ds, prefix, options).weighted_completeness)
            << "after " << prefix.size() << " APIs";
      }
    }
  }
}

TEST(Completeness, MultiKindPathCoversAllKinds) {
  // One package needs a syscall AND an ioctl op; it only becomes supported
  // once the combined path has added both.
  auto ds = std::make_unique<StudyDataset>(2, 100);
  ASSERT_TRUE(ds->SetInstallCount(0, 100).ok());
  ASSERT_TRUE(ds->SetInstallCount(1, 50).ok());
  ASSERT_TRUE(ds->SetFootprint(0, {SyscallApi(0)}).ok());
  ASSERT_TRUE(
      ds->SetFootprint(1, {SyscallApi(0), IoctlApi(0x5401)}).ok());
  ASSERT_TRUE(ds->Finalize().ok());

  auto path = GreedyCompletenessPathMultiKind(
      *ds, {ApiKind::kSyscall, ApiKind::kIoctlOp});
  ASSERT_EQ(path.size(), 2u);
  // syscall 0 first (importance 1.0 > ioctl op's 1/3 weight... both have
  // importance: syscall 1.0, ioctl 1-(1-1/3)=0.333).
  EXPECT_EQ(path[0].api, SyscallApi(0));
  EXPECT_NEAR(path[0].weighted_completeness, 1.0 / 1.5, 1e-12);
  EXPECT_EQ(path[1].api, IoctlApi(0x5401));
  EXPECT_NEAR(path[1].weighted_completeness, 1.0, 1e-12);
}

TEST(Completeness, MultiKindIgnoresOtherKindsInFootprints) {
  auto ds = std::make_unique<StudyDataset>(1, 100);
  ASSERT_TRUE(ds->SetInstallCount(0, 100).ok());
  ASSERT_TRUE(ds->SetFootprint(0, {SyscallApi(0),
                                   ApiId{ApiKind::kLibcFn, 3}})
                  .ok());
  ASSERT_TRUE(ds->Finalize().ok());
  // Only syscalls evaluated: the libc entry must not gate support.
  auto path = GreedyCompletenessPathMultiKind(*ds, {ApiKind::kSyscall});
  ASSERT_EQ(path.size(), 1u);
  EXPECT_NEAR(path[0].weighted_completeness, 1.0, 1e-12);
}

TEST(Completeness, StageDecompositionBaseline) {
  auto ds = MakeDataset();
  auto path = GreedyCompletenessPath(*ds, ApiKind::kSyscall);
  // With a baseline of 1/1.8 (libc's share), stage "0.35" means
  // baseline + 35 points = 90.6% -> needs syscalls {0,1,2,3}
  // (1.7/1.8 = 94.4%); without the baseline, {0,1,2} (83.3%) would do.
  auto stages = DecomposeStages(path, {0.35}, 1.0 / 1.8);
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].cumulative_apis, 4u);
  auto no_baseline = DecomposeStages(path, {0.35}, 0.0);
  EXPECT_EQ(no_baseline[0].cumulative_apis, 2u);
}

TEST(Completeness, StageDecomposition) {
  auto ds = MakeDataset();
  auto path = GreedyCompletenessPath(*ds, ApiKind::kSyscall);
  auto stages = DecomposeStages(path, {0.5, 0.9, 1.0});
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(stages[0].cumulative_apis, 2u);  // 1/1.8 = 55% >= 50%
  EXPECT_EQ(stages[1].cumulative_apis, 4u);  // 1.7/1.8 = 94% >= 90%
  EXPECT_EQ(stages[2].cumulative_apis, 5u);
}

TEST(Completeness, SuggestNextApis) {
  auto ds = MakeDataset();
  auto suggested =
      SuggestNextApis(*ds, {SyscallApi(0), SyscallApi(1)},
                      ApiKind::kSyscall, 2);
  ASSERT_EQ(suggested.size(), 2u);
  EXPECT_EQ(suggested[0], SyscallApi(2));
  EXPECT_EQ(suggested[1], SyscallApi(3));
}

TEST(Systems, EvaluateSystemSuggestions) {
  auto ds = MakeDataset();
  SystemProfile profile;
  profile.name = "proto";
  profile.supported = {SyscallApi(0), SyscallApi(1)};
  auto eval = EvaluateSystem(*ds, profile, 2);
  EXPECT_EQ(eval.supported_count, 2u);
  EXPECT_NEAR(eval.weighted_completeness, 1.0 / 1.8, 1e-12);
  ASSERT_EQ(eval.suggested.size(), 2u);
  EXPECT_EQ(eval.suggested[0], SyscallApi(2));
  EXPECT_GT(eval.completeness_with_suggestions, eval.weighted_completeness);
}

// ---------------- libc analysis ----------------

TEST(LibcAnalysis, RestructureReport) {
  // Two libc symbols: one hot (importance 1.0, 100 bytes), one cold
  // (importance 0.1, 300 bytes).
  auto ds = std::make_unique<StudyDataset>(2, 1000);
  ASSERT_TRUE(ds->SetInstallCount(0, 1000).ok());
  ASSERT_TRUE(ds->SetInstallCount(1, 100).ok());
  ApiId hot{ApiKind::kLibcFn, 0};
  ApiId cold{ApiKind::kLibcFn, 1};
  ASSERT_TRUE(ds->SetFootprint(0, {hot}).ok());
  ASSERT_TRUE(ds->SetFootprint(1, {hot, cold}).ok());
  ASSERT_TRUE(ds->Finalize().ok());

  std::map<uint32_t, uint64_t> sizes = {{0, 100}, {1, 300}};
  auto report = AnalyzeLibcRestructure(*ds, sizes, 0.90);
  EXPECT_EQ(report.total_apis, 2u);
  EXPECT_EQ(report.retained_apis, 1u);
  EXPECT_NEAR(report.retained_size_fraction, 0.25, 1e-12);
  // Stripped libc: pkg1 (uses cold) fails -> 1000/1100.
  EXPECT_NEAR(report.stripped_weighted_completeness, 1000.0 / 1100.0, 1e-9);
  EXPECT_EQ(report.relocation_bytes, 48u);
}

TEST(LibcAnalysis, VariantEvaluationWithNormalization) {
  // pkg0 uses __printf_chk (id 0); variant exports only printf (id 1).
  auto ds = std::make_unique<StudyDataset>(1, 100);
  ASSERT_TRUE(ds->SetInstallCount(0, 100).ok());
  ASSERT_TRUE(ds->SetFootprint(0, {ApiId{ApiKind::kLibcFn, 0}}).ok());
  ASSERT_TRUE(ds->Finalize().ok());

  LibcVariantProfile profile;
  profile.name = "mini-musl";
  profile.exported_symbols = {1};
  profile.normalization = {{0, 1}};
  auto eval = EvaluateLibcVariant(*ds, profile);
  EXPECT_NEAR(eval.weighted_completeness, 0.0, 1e-12);
  EXPECT_NEAR(eval.normalized_weighted_completeness, 1.0, 1e-12);
}

TEST(DatasetDiff, DetectsMovementAppearancesAndVanishings) {
  // before: syscall 1 used by pkg0 (p=1.0); syscall 2 by pkg1 (p=0.1).
  auto before = std::make_unique<StudyDataset>(2, 100);
  ASSERT_TRUE(before->SetInstallCount(0, 100).ok());
  ASSERT_TRUE(before->SetInstallCount(1, 10).ok());
  ASSERT_TRUE(before->SetFootprint(0, {SyscallApi(1)}).ok());
  ASSERT_TRUE(before->SetFootprint(1, {SyscallApi(2)}).ok());
  ASSERT_TRUE(before->Finalize().ok());
  // after: syscall 2's dependent got popular; syscall 1 vanished;
  // syscall 3 appeared.
  auto after = std::make_unique<StudyDataset>(2, 100);
  ASSERT_TRUE(after->SetInstallCount(0, 100).ok());
  ASSERT_TRUE(after->SetInstallCount(1, 60).ok());
  ASSERT_TRUE(after->SetFootprint(0, {SyscallApi(3)}).ok());
  ASSERT_TRUE(after->SetFootprint(1, {SyscallApi(2)}).ok());
  ASSERT_TRUE(after->Finalize().ok());

  auto diff = CompareDatasets(*before, *after);
  EXPECT_EQ(diff.apis_compared, 3u);
  ASSERT_EQ(diff.appeared.size(), 1u);
  EXPECT_EQ(diff.appeared[0], SyscallApi(3));
  ASSERT_EQ(diff.vanished.size(), 1u);
  EXPECT_EQ(diff.vanished[0], SyscallApi(1));
  // Movement sorted by |shift| desc: syscall 1 (1.0 -> 0) first.
  ASSERT_GE(diff.moved.size(), 2u);
  EXPECT_EQ(diff.moved[0].api, SyscallApi(1));
  EXPECT_DOUBLE_EQ(diff.moved[0].ImportanceShift(), -1.0);
  // syscall 2: 0.1 -> 0.6.
  bool found = false;
  for (const auto& delta : diff.moved) {
    if (delta.api == SyscallApi(2)) {
      EXPECT_NEAR(delta.ImportanceShift(), 0.5, 1e-12);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DatasetDiff, ThresholdFiltersNoise) {
  auto a = std::make_unique<StudyDataset>(1, 1000);
  ASSERT_TRUE(a->SetInstallCount(0, 500).ok());
  ASSERT_TRUE(a->SetFootprint(0, {SyscallApi(1)}).ok());
  ASSERT_TRUE(a->Finalize().ok());
  auto b = std::make_unique<StudyDataset>(1, 1000);
  ASSERT_TRUE(b->SetInstallCount(0, 504).ok());  // 0.4-point wiggle
  ASSERT_TRUE(b->SetFootprint(0, {SyscallApi(1)}).ok());
  ASSERT_TRUE(b->Finalize().ok());
  DiffOptions options;
  options.min_shift = 0.01;
  EXPECT_TRUE(CompareDatasets(*a, *b, options).moved.empty());
  options.min_shift = 0.001;
  EXPECT_EQ(CompareDatasets(*a, *b, options).moved.size(), 1u);
}

TEST(StudyDataset, FootprintUniqueness) {
  auto ds = std::make_unique<StudyDataset>(4, 100);
  for (PackageId i = 0; i < 4; ++i) {
    ASSERT_TRUE(ds->SetInstallCount(i, 10).ok());
  }
  ASSERT_TRUE(ds->SetFootprint(0, {SyscallApi(1)}).ok());
  ASSERT_TRUE(ds->SetFootprint(1, {SyscallApi(1)}).ok());
  ASSERT_TRUE(ds->SetFootprint(2, {SyscallApi(2)}).ok());
  // pkg3 footprint left empty.
  ASSERT_TRUE(ds->Finalize().ok());
  auto uniq = ds->ComputeFootprintUniqueness();
  EXPECT_EQ(uniq.packages_with_footprint, 3u);
  EXPECT_EQ(uniq.distinct, 2u);
  EXPECT_EQ(uniq.unique, 1u);
}

}  // namespace
}  // namespace lapis::core
