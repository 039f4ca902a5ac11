// End-to-end integration: generate the synthetic distribution, run the full
// static-analysis pipeline over real ELF bytes, join with the simulated
// popularity survey, and check the recovered study against both the plan's
// ground truth and the paper's headline shapes (scaled).

#include <gtest/gtest.h>

#include <memory>

#include "src/core/completeness.h"
#include "src/core/libc_analysis.h"
#include "src/core/systems.h"
#include "src/corpus/api_universe.h"
#include "src/corpus/study_runner.h"
#include "src/corpus/syscall_table.h"
#include "src/corpus/system_profiles.h"

namespace lapis {
namespace {

using corpus::RunStudy;
using corpus::SmallStudyOptions;
using corpus::StudyResult;

// One shared study for the whole suite (generation takes a few seconds).
const StudyResult& Study() {
  static const StudyResult* study = [] {
    auto options = SmallStudyOptions();
    options.popcon_retain_samples = 2000;
    auto result = RunStudy(options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return new StudyResult(result.take());
  }();
  return *study;
}

TEST(StudyIntegration, PipelineRecoversPlannedFootprintsExactly) {
  EXPECT_EQ(Study().ground_truth_mismatches, 0u);
  EXPECT_GT(Study().analyzed_binaries, 400u);
}

TEST(StudyIntegration, StartupSyscallsAreUniversallyImportant) {
  const auto& dataset = *Study().dataset;
  for (int nr : corpus::StartupSyscalls()) {
    EXPECT_GT(dataset.ApiImportance(
                  core::SyscallApi(static_cast<uint32_t>(nr))),
              0.999)
        << corpus::SyscallName(nr);
  }
}

TEST(StudyIntegration, UnusedSyscallsHaveZeroImportance) {
  const auto& dataset = *Study().dataset;
  for (int nr : corpus::UnusedSyscalls()) {
    EXPECT_EQ(dataset.ApiImportance(
                  core::SyscallApi(static_cast<uint32_t>(nr))),
              0.0)
        << corpus::SyscallName(nr);
  }
}

TEST(StudyIntegration, Fig2SyscallImportanceTiers) {
  const auto& dataset = *Study().dataset;
  size_t at_100 = 0;
  size_t above_10 = 0;
  size_t nonzero = 0;
  for (int nr = 0; nr < corpus::kSyscallCount; ++nr) {
    double imp =
        dataset.ApiImportance(core::SyscallApi(static_cast<uint32_t>(nr)));
    if (imp > 0.995) {
      ++at_100;
    }
    if (imp > 0.10) {
      ++above_10;
    }
    if (imp > 0.0) {
      ++nonzero;
    }
  }
  // Paper: 224 at 100%, 257 above 10%, ~302 nonzero. Scaled corpus keeps
  // the tier structure; tolerances cover sampling noise.
  EXPECT_NEAR(static_cast<double>(at_100), 224.0, 10.0);
  EXPECT_NEAR(static_cast<double>(above_10), 257.0, 22.0);
  EXPECT_NEAR(static_cast<double>(nonzero), 302.0, 10.0);
}

TEST(StudyIntegration, Fig3CompletenessPathAnchors) {
  const auto& dataset = *Study().dataset;
  auto path = core::GreedyCompletenessPath(dataset, core::ApiKind::kSyscall,
                                           corpus::FullSyscallUniverse());
  ASSERT_EQ(path.size(), 320u);
  // Essentially nothing runs below 40 syscalls (a small floor remains:
  // data-only packages with no programs are always "supported").
  EXPECT_LT(path[38].weighted_completeness, 0.05);
  // Paper anchors (N -> WC): 40 -> 1.1%, 81 -> 10.7%, 145 -> 50.1%,
  // 202 -> 90.6%, 272+ -> 100%. Loose bands: the scaled corpus reproduces
  // the shape, not the third digit.
  EXPECT_NEAR(path[40].weighted_completeness, 0.011, 0.06);
  EXPECT_NEAR(path[80].weighted_completeness, 0.107, 0.09);
  EXPECT_NEAR(path[144].weighted_completeness, 0.501, 0.15);
  EXPECT_NEAR(path[201].weighted_completeness, 0.906, 0.10);
  EXPECT_GT(path[305].weighted_completeness, 0.999);
  // Monotone non-decreasing.
  for (size_t i = 1; i < path.size(); ++i) {
    EXPECT_GE(path[i].weighted_completeness,
              path[i - 1].weighted_completeness - 1e-12);
  }
}

TEST(StudyIntegration, Fig8UnweightedTiers) {
  const auto& dataset = *Study().dataset;
  auto ranked = dataset.RankByUnweightedImportance(
      core::ApiKind::kSyscall, corpus::FullSyscallUniverse());
  // The first 40 are used by essentially every package.
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_GT(dataset.UnweightedImportance(ranked[i]), 0.80);
  }
  // The rank where unweighted importance crosses 10% sits near 130.
  size_t crossing = 0;
  for (size_t i = 0; i < ranked.size(); ++i) {
    if (dataset.UnweightedImportance(ranked[i]) < 0.10) {
      crossing = i;
      break;
    }
  }
  EXPECT_GT(crossing, 90u);
  EXPECT_LT(crossing, 185u);
}

TEST(StudyIntegration, Table8SecureVariantAdoption) {
  const auto& dataset = *Study().dataset;
  auto unweighted = [&](const char* name) {
    auto nr = corpus::SyscallNumber(name);
    return dataset.UnweightedImportance(
        core::SyscallApi(static_cast<uint32_t>(*nr)));
  };
  // The insecure/legacy calls dominate their secure replacements.
  EXPECT_GT(unweighted("access"), 10.0 * unweighted("faccessat"));
  EXPECT_GT(unweighted("mkdir"), 10.0 * unweighted("mkdirat"));
  EXPECT_GT(unweighted("chmod"), 10.0 * unweighted("fchmodat"));
  EXPECT_GT(unweighted("wait4"), 10.0 * unweighted("waitid"));
  // setresuid is the one secure call that won (99.68% vs 15.67%).
  EXPECT_GT(unweighted("setresuid"), unweighted("setuid"));
  // Published magnitudes (loose): access ~74%, poll ~71%, select ~62%.
  EXPECT_NEAR(unweighted("access"), 0.742, 0.15);
  EXPECT_NEAR(unweighted("poll"), 0.711, 0.15);
  EXPECT_NEAR(unweighted("select"), 0.615, 0.15);
}

TEST(StudyIntegration, Fig4IoctlTiers) {
  const auto& dataset = *Study().dataset;
  const auto& ops = corpus::IoctlOps();
  size_t at_100 = 0;
  size_t above_1 = 0;
  size_t used = 0;
  for (const auto& op : ops) {
    double imp = dataset.ApiImportance(core::IoctlApi(op.code));
    if (imp > 0.995) {
      ++at_100;
    }
    if (imp > 0.01) {
      ++above_1;
    }
    if (imp > 0.0) {
      ++used;
    }
  }
  EXPECT_NEAR(static_cast<double>(at_100), 52.0, 8.0);
  EXPECT_NEAR(static_cast<double>(above_1), 188.0, 25.0);
  EXPECT_NEAR(static_cast<double>(used), 280.0, 15.0);
}

TEST(StudyIntegration, Fig5FcntlPrctlTiers) {
  const auto& dataset = *Study().dataset;
  size_t fcntl_100 = 0;
  for (const auto& op : corpus::FcntlOps()) {
    if (dataset.ApiImportance(core::FcntlApi(op.code)) > 0.995) {
      ++fcntl_100;
    }
  }
  EXPECT_NEAR(static_cast<double>(fcntl_100), 11.0, 2.0);
  size_t prctl_100 = 0;
  size_t prctl_20 = 0;
  for (const auto& op : corpus::PrctlOps()) {
    double imp = dataset.ApiImportance(core::PrctlApi(op.code));
    if (imp > 0.995) {
      ++prctl_100;
    }
    if (imp > 0.20) {
      ++prctl_20;
    }
  }
  EXPECT_NEAR(static_cast<double>(prctl_100), 9.0, 2.0);
  EXPECT_NEAR(static_cast<double>(prctl_20), 18.0, 4.0);
}

TEST(StudyIntegration, Fig6PseudoFiles) {
  const auto& study = Study();
  const auto& dataset = *study.dataset;
  uint32_t dev_null = study.path_interner.Find("/dev/null");
  ASSERT_NE(dev_null, UINT32_MAX);
  EXPECT_GT(dataset.ApiImportance(
                core::ApiId{core::ApiKind::kPseudoFile, dev_null}),
            0.999);
  // /dev/null is the most-referenced hard-coded path.
  auto it = study.pseudo_path_binary_counts.find("/dev/null");
  ASSERT_NE(it, study.pseudo_path_binary_counts.end());
  for (const auto& [path, count] : study.pseudo_path_binary_counts) {
    EXPECT_LE(count, it->second) << path;
  }
  // /dev/kvm belongs to qemu alone.
  uint32_t kvm = study.path_interner.Find("/dev/kvm");
  ASSERT_NE(kvm, UINT32_MAX);
  auto dependents =
      dataset.Dependents(core::ApiId{core::ApiKind::kPseudoFile, kvm});
  ASSERT_EQ(dependents.size(), 1u);
  EXPECT_EQ(dataset.PackageName(dependents[0]), "qemu-user");
}

TEST(StudyIntegration, Fig7LibcImportanceShape) {
  const auto& study = Study();
  const auto& dataset = *study.dataset;
  size_t at_100 = 0;
  size_t below_1 = 0;
  size_t total = corpus::LibcUniverse().size();
  for (const auto& spec : corpus::LibcUniverse()) {
    uint32_t id = study.libc_interner.Find(spec.name);
    ASSERT_NE(id, UINT32_MAX);
    double imp =
        dataset.ApiImportance(core::ApiId{core::ApiKind::kLibcFn, id});
    if (imp > 0.995) {
      ++at_100;
    }
    if (imp < 0.01) {
      ++below_1;
    }
  }
  double frac_100 = static_cast<double>(at_100) / static_cast<double>(total);
  double frac_low = static_cast<double>(below_1) / static_cast<double>(total);
  // Paper: 42.8% at 100%, 39.7% below 1%.
  EXPECT_NEAR(frac_100, 0.428, 0.10);
  EXPECT_NEAR(frac_low, 0.397, 0.10);
}

TEST(StudyIntegration, Table6SystemOrdering) {
  const auto& dataset = *Study().dataset;
  std::map<std::string, double> completeness;
  for (const auto& plan : corpus::LinuxSystemPlans()) {
    auto profile = corpus::BuildSystemProfile(dataset, plan);
    EXPECT_EQ(profile.supported.size(), plan.supported_count) << plan.name;
    auto eval = core::EvaluateSystem(dataset, profile);
    completeness[plan.name] = eval.weighted_completeness;
  }
  EXPECT_GT(completeness["L4Linux 4.3"], completeness["User-Mode-Linux 3.19"]);
  EXPECT_GT(completeness["User-Mode-Linux 3.19"],
            completeness["FreeBSD-emu 10.2"]);
  EXPECT_GT(completeness["FreeBSD-emu 10.2"], completeness["Graphene (+sched)"]);
  EXPECT_GT(completeness["Graphene (+sched)"], completeness["Graphene"]);
  // Magnitudes.
  EXPECT_GT(completeness["L4Linux 4.3"], 0.90);
  EXPECT_GT(completeness["User-Mode-Linux 3.19"], 0.85);
  EXPECT_NEAR(completeness["FreeBSD-emu 10.2"], 0.623, 0.20);
  EXPECT_LT(completeness["Graphene"], 0.10);
}

TEST(StudyIntegration, Table7LibcVariants) {
  const auto& study = Study();
  const auto& dataset = *study.dataset;
  std::map<std::string, core::LibcVariantEvaluation> evals;
  for (const auto& plan : corpus::LibcVariantPlans()) {
    auto profile = corpus::BuildLibcVariantProfile(plan, study.libc_interner);
    evals[plan.name] = core::EvaluateLibcVariant(dataset, profile);
  }
  // eglibc exports everything: full compatibility.
  EXPECT_GT(evals["eglibc 2.19"].weighted_completeness, 0.999);
  // uClibc/musl raw completeness collapses (fortify symbols missing) but
  // recovers to ~40% after normalization.
  EXPECT_LT(evals["uClibc 0.9.33"].weighted_completeness, 0.10);
  EXPECT_GT(evals["uClibc 0.9.33"].normalized_weighted_completeness, 0.25);
  EXPECT_LT(evals["uClibc 0.9.33"].normalized_weighted_completeness, 0.65);
  EXPECT_LT(evals["musl 1.1.14"].weighted_completeness, 0.10);
  EXPECT_GT(evals["musl 1.1.14"].normalized_weighted_completeness, 0.25);
  // dietlibc misses universal symbols: nothing works.
  EXPECT_LT(evals["dietlibc 0.33"].normalized_weighted_completeness, 0.05);
}

TEST(StudyIntegration, LibcRestructureMatchesPaperShape) {
  const auto& study = Study();
  auto report = core::AnalyzeLibcRestructure(*study.dataset,
                                             study.libc_symbol_sizes, 0.90);
  EXPECT_EQ(report.total_apis, corpus::kLibcSymbolCount);
  // Paper §3.5: retain >=90%-importance symbols -> 889 APIs, 63% of bytes,
  // 90.7% weighted completeness. Note the paper's 889 is inconsistent with
  // its own Fig 7 (only ~43% of symbols sit at 100% importance and 50.6%
  // are below 50%, so at most ~630 can be above 90%); our corpus follows
  // Fig 7, hence the wide band here.
  EXPECT_GT(report.retained_apis, 430u);
  EXPECT_LT(report.retained_apis, 900u);
  EXPECT_NEAR(report.retained_size_fraction, 0.63, 0.15);
  EXPECT_GT(report.stripped_weighted_completeness, 0.70);
}

TEST(StudyIntegration, UnknownSyscallSitesExist) {
  // The paper could not resolve ~4% of call sites; the corpus plants
  // arithmetic-obfuscated sites that our back-tracker must refuse to guess.
  EXPECT_GT(Study().unknown_syscall_sites, 0);
  EXPECT_LT(Study().unknown_syscall_sites, Study().total_syscall_sites / 5);
}

TEST(StudyIntegration, Table1LibraryOnlyAttribution) {
  const auto& study = Study();
  // mbind's only call sites live in the libnuma/libopenblas libraries.
  auto nr = corpus::SyscallNumber("mbind");
  ASSERT_TRUE(nr.has_value());
  auto it = study.syscall_site_binaries.find(*nr);
  ASSERT_NE(it, study.syscall_site_binaries.end());
  for (const auto& name : it->second) {
    EXPECT_TRUE(name == corpus::kLibcSoname ||
                name.find(".so") != std::string::npos)
        << name;
  }
}

TEST(StudyIntegration, FootprintUniqueness) {
  auto uniq = Study().dataset->ComputeFootprintUniqueness();
  // Paper §6: of 31,433 apps, 11,680 distinct footprints, 9,133 unique.
  // Shape: distinct < packages, unique < distinct, both substantial.
  EXPECT_GT(uniq.packages_with_footprint, 300u);
  EXPECT_GT(uniq.distinct, uniq.packages_with_footprint / 10);
  EXPECT_LE(uniq.unique, uniq.distinct);
  EXPECT_GT(uniq.unique, 0u);
}

TEST(StudyIntegration, IoctlGreedyPathIsFrontLoaded) {
  const auto& dataset = *Study().dataset;
  std::vector<core::ApiId> universe;
  for (const auto& op : corpus::IoctlOps()) {
    universe.push_back(core::IoctlApi(op.code));
  }
  auto path = core::GreedyCompletenessPath(dataset, core::ApiKind::kIoctlOp,
                                           universe);
  ASSERT_EQ(path.size(), corpus::kIoctlOpCount);
  // §2: most value concentrates in the universal block; the 355-op unused
  // tail adds nothing.
  EXPECT_GT(path[59].weighted_completeness, 0.80);
  EXPECT_GT(path[299].weighted_completeness, 0.999);
  EXPECT_DOUBLE_EQ(path[299].weighted_completeness,
                   path.back().weighted_completeness);
}

TEST(StudyIntegration, DeadCodeDoesNotLeakIntoFootprints) {
  // Some synthesized executables carry an unreachable function calling the
  // ptrace/sync wrappers; entry-point reachability must exclude it. If it
  // leaked, every carrier package's footprint would contain ptrace even
  // when its plan does not -- which the zero-mismatch ground truth already
  // rules out. Double-check directly on one known carrier-free package.
  const auto& dataset = *Study().dataset;
  auto pkg = dataset.FindPackage("libc6");
  ASSERT_NE(pkg, UINT32_MAX);
  auto ptrace_nr = corpus::SyscallNumber("ptrace");
  for (uint32_t dense : dataset.Footprint(pkg)) {
    const core::ApiId& api = dataset.UsedApis()[dense];
    if (api.kind == core::ApiKind::kSyscall) {
      EXPECT_NE(api.code, static_cast<uint32_t>(*ptrace_nr));
    }
  }
}

TEST(StudyIntegration, ScriptProgramsClassifiedByShebang) {
  const auto& stats = Study().binary_stats;
  // Every interpreter bucket the corpus plans for shows up via shebang
  // scanning, dash leading (Fig 1).
  auto count = [&](package::ProgramKind kind) {
    auto it = stats.script_programs.find(kind);
    return it == stats.script_programs.end() ? size_t{0} : it->second;
  };
  EXPECT_GT(count(package::ProgramKind::kShellDash), 0u);
  EXPECT_GT(count(package::ProgramKind::kPython), 0u);
  EXPECT_GT(count(package::ProgramKind::kPerl), 0u);
  EXPECT_GE(count(package::ProgramKind::kShellDash),
            count(package::ProgramKind::kPython));
}

TEST(StudyIntegration, IndependenceAssumptionAblation) {
  const auto& study = Study();
  ASSERT_FALSE(study.survey.samples.empty());
  const auto& dataset = *study.dataset;
  // For a few syscalls, compare the paper's independence-assumption
  // importance against the true fraction of sampled installations
  // containing a dependent package.
  for (const char* name : {"mbind", "kexec_load", "getcpu"}) {
    auto nr = corpus::SyscallNumber(name);
    core::ApiId api = core::SyscallApi(static_cast<uint32_t>(*nr));
    const auto& dependents = dataset.Dependents(api);
    if (dependents.empty()) {
      continue;
    }
    size_t hits = 0;
    for (const auto& sample : study.survey.samples) {
      for (core::PackageId pkg : dependents) {
        if (sample.Contains(pkg)) {
          ++hits;
          break;
        }
      }
    }
    double truth = static_cast<double>(hits) /
                   static_cast<double>(study.survey.samples.size());
    double assumed = dataset.ApiImportance(api);
    EXPECT_NEAR(assumed, truth, 0.12) << name;
  }
}

}  // namespace
}  // namespace lapis
