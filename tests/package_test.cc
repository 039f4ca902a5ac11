// Repository / dependency-closure / popcon-simulation tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>
#include <utility>

#include "src/cache/content_hash.h"
#include "src/corpus/binary_synth.h"
#include "src/corpus/distro_spec.h"
#include "src/corpus/study_runner.h"
#include "src/package/popcon.h"
#include "src/package/repository.h"
#include "src/runtime/executor.h"
#include "src/util/prng.h"

namespace lapis::package {
namespace {

Repository ChainRepo() {
  // libc <- libfoo <- app ; standalone "other".
  Repository repo;
  Package libc;
  libc.name = "libc";
  EXPECT_EQ(repo.AddPackage(libc).value(), 0u);
  Package libfoo;
  libfoo.name = "libfoo";
  libfoo.depends = {0};
  EXPECT_EQ(repo.AddPackage(libfoo).value(), 1u);
  Package app;
  app.name = "app";
  app.depends = {1};
  EXPECT_EQ(repo.AddPackage(app).value(), 2u);
  Package other;
  other.name = "other";
  EXPECT_EQ(repo.AddPackage(other).value(), 3u);
  return repo;
}

TEST(Repository, AddAndFind) {
  Repository repo = ChainRepo();
  EXPECT_EQ(repo.size(), 4u);
  EXPECT_EQ(repo.FindByName("app"), 2u);
  EXPECT_EQ(repo.FindByName("nope"), kInvalidPackage);
}

TEST(Repository, RejectsDuplicatesAndBadDeps) {
  Repository repo;
  Package a;
  a.name = "a";
  ASSERT_TRUE(repo.AddPackage(a).ok());
  Package dup;
  dup.name = "a";
  EXPECT_EQ(repo.AddPackage(dup).status().code(),
            StatusCode::kFailedPrecondition);
  Package forward;
  forward.name = "b";
  forward.depends = {7};  // not yet added
  EXPECT_EQ(repo.AddPackage(forward).status().code(),
            StatusCode::kInvalidArgument);
  Package anonymous;
  EXPECT_EQ(repo.AddPackage(anonymous).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Repository, DependencyClosure) {
  Repository repo = ChainRepo();
  const ClosureTable closures = repo.Closures();
  EXPECT_EQ(std::vector<PackageId>(closures.Of(2).begin(),
                                   closures.Of(2).end()),
            (std::vector<PackageId>{2, 1, 0}));
  EXPECT_EQ(closures.Of(3).size(), 1u);
}

TEST(Repository, InterpreterActsAsDependency) {
  Repository repo;
  Package python;
  python.name = "python";
  ASSERT_TRUE(repo.AddPackage(python).ok());
  Package script;
  script.name = "myscript";
  script.kind = ProgramKind::kPython;
  script.interpreter = 0;
  ASSERT_TRUE(repo.AddPackage(script).ok());
  const ClosureTable closures = repo.Closures();
  EXPECT_EQ(std::set<PackageId>(closures.Of(1).begin(), closures.Of(1).end()),
            (std::set<PackageId>{0, 1}));
}

// A script package's edges list its depends, then its interpreter, and its
// closure walks both breadth-first.
TEST(Repository, ClosuresFollowInterpreterEdges) {
  Repository repo;
  for (const char* name : {"libc", "python", "perl"}) {
    Package p;
    p.name = name;
    if (repo.size() > 0) {
      p.depends = {0};
    }
    ASSERT_TRUE(repo.AddPackage(p).ok());
  }
  Package script;
  script.name = "script";
  script.kind = ProgramKind::kPython;
  script.depends = {2};
  script.interpreter = 1;
  ASSERT_EQ(repo.AddPackage(script).value(), 3u);

  const std::vector<std::vector<PackageId>> edges = repo.DependencyEdges();
  EXPECT_EQ(edges, (std::vector<std::vector<PackageId>>{{}, {0}, {0}, {2, 1}}));
  const ClosureTable closures = repo.Closures();
  EXPECT_EQ(closures.begin, (std::vector<size_t>{0, 1, 3, 5, 9}));
  EXPECT_EQ(closures.members,
            (std::vector<PackageId>{0, 1, 0, 2, 0, 3, 2, 1, 0}));
}

// The breadth-first walk the closure table replaced, one package at a
// time: a deque, and a member marked when it leaves the queue.
std::vector<PackageId> ReferenceClosure(
    const std::vector<std::vector<PackageId>>& edges, PackageId id) {
  std::vector<PackageId> out;
  std::vector<bool> visited(edges.size(), false);
  std::deque<PackageId> queue = {id};
  while (!queue.empty()) {
    PackageId current = queue.front();
    queue.pop_front();
    if (visited[current]) {
      continue;
    }
    visited[current] = true;
    out.push_back(current);
    for (PackageId dep : edges[current]) {
      if (!visited[dep]) {
        queue.push_back(dep);
      }
    }
  }
  return out;
}

// Seeded random graphs with edges in both directions, so cycles, self
// loops and repeated edges all occur; every closure must list the
// reference walk's members in its order.
TEST(DependencyClosures, MatchReferenceWalkMemberByMember) {
  Prng prng(0xc105);
  size_t cyclic = 0;
  size_t self_loops = 0;
  size_t repeats = 0;
  for (size_t n : {1, 2, 7, 40, 300}) {
    std::vector<std::vector<PackageId>> edges(n);
    for (PackageId p = 0; p < n; ++p) {
      const size_t degree = prng.NextBelow(5);
      for (size_t e = 0; e < degree; ++e) {
        const auto dep = static_cast<PackageId>(prng.NextBelow(n));
        self_loops += dep == p ? 1 : 0;
        repeats += std::count(edges[p].begin(), edges[p].end(), dep);
        edges[p].push_back(dep);
      }
    }
    const ClosureTable closures = DependencyClosures(edges);
    ASSERT_EQ(closures.begin.size(), n + 1);
    EXPECT_EQ(closures.begin.back(), closures.members.size());
    for (PackageId p = 0; p < n; ++p) {
      const std::vector<PackageId> want = ReferenceClosure(edges, p);
      EXPECT_EQ(std::vector<PackageId>(closures.Of(p).begin(),
                                       closures.Of(p).end()),
                want)
          << n << " packages, closure of " << p;
      // p lies on a cycle through another package if one of its
      // dependencies' closures leads back to it.
      for (PackageId dep : edges[p]) {
        const std::vector<PackageId> back = ReferenceClosure(edges, dep);
        if (dep != p && std::count(back.begin(), back.end(), p) > 0) {
          ++cyclic;
          break;
        }
      }
    }
  }
  EXPECT_GT(cyclic, 0u);
  EXPECT_GT(self_loops, 0u);
  EXPECT_GT(repeats, 0u);
}

TEST(InstallationSet, BitOperations) {
  InstallationSet set(130);
  EXPECT_FALSE(set.Contains(0));
  set.Add(0);
  set.Add(64);
  set.Add(129);
  EXPECT_TRUE(set.Contains(0));
  EXPECT_TRUE(set.Contains(64));
  EXPECT_TRUE(set.Contains(129));
  EXPECT_FALSE(set.Contains(1));
  EXPECT_EQ(set.CountInstalled(), 3u);
}

TEST(Popcon, MarginalsApproximateTargets) {
  Repository repo;
  for (int i = 0; i < 4; ++i) {
    Package p;
    p.name = "p" + std::to_string(i);
    ASSERT_TRUE(repo.AddPackage(p).ok());
  }
  std::vector<double> marginals = {1.0, 0.5, 0.1, 0.0};
  PopconOptions options;
  options.installation_count = 40000;
  auto survey = PopconSimulator::Run(repo, marginals, options);
  ASSERT_TRUE(survey.ok());
  EXPECT_EQ(survey.value().total_reporting, 40000u);
  EXPECT_NEAR(survey.value().InstallProbability(0), 1.0, 1e-9);
  EXPECT_NEAR(survey.value().InstallProbability(1), 0.5, 0.02);
  EXPECT_NEAR(survey.value().InstallProbability(2), 0.1, 0.01);
  EXPECT_EQ(survey.value().install_counts[3], 0u);
}

TEST(Popcon, DependencyPullInflatesMarginal) {
  // dep has direct marginal 0, but app (0.5) always pulls it.
  Repository repo;
  Package dep;
  dep.name = "dep";
  ASSERT_TRUE(repo.AddPackage(dep).ok());
  Package app;
  app.name = "app";
  app.depends = {0};
  ASSERT_TRUE(repo.AddPackage(app).ok());
  PopconOptions options;
  options.installation_count = 20000;
  auto survey = PopconSimulator::Run(repo, {0.0, 0.5}, options);
  ASSERT_TRUE(survey.ok());
  EXPECT_NEAR(survey.value().InstallProbability(0),
              survey.value().InstallProbability(1), 1e-9);
}

TEST(Popcon, ReportRateSubsamples) {
  Repository repo;
  Package p;
  p.name = "p";
  ASSERT_TRUE(repo.AddPackage(p).ok());
  PopconOptions options;
  options.installation_count = 10000;
  options.report_rate = 0.5;
  auto survey = PopconSimulator::Run(repo, {1.0}, options);
  ASSERT_TRUE(survey.ok());
  EXPECT_NEAR(static_cast<double>(survey.value().total_reporting), 5000.0,
              200.0);
  // Probabilities stay calibrated because both counts shrink together.
  EXPECT_NEAR(survey.value().InstallProbability(0), 1.0, 1e-9);
}

TEST(Popcon, RetainedSamplesMatchCounts) {
  Repository repo;
  for (int i = 0; i < 3; ++i) {
    Package p;
    p.name = "p" + std::to_string(i);
    ASSERT_TRUE(repo.AddPackage(p).ok());
  }
  PopconOptions options;
  options.installation_count = 3000;
  options.retain_samples = 3000;
  auto survey = PopconSimulator::Run(repo, {1.0, 0.3, 0.05}, options);
  ASSERT_TRUE(survey.ok());
  ASSERT_EQ(survey.value().samples.size(), survey.value().total_reporting);
  // Recount installs from the samples; must equal the marginal counts.
  std::vector<uint64_t> recount(3, 0);
  for (const auto& sample : survey.value().samples) {
    for (PackageId id = 0; id < 3; ++id) {
      if (sample.Contains(id)) {
        ++recount[id];
      }
    }
  }
  EXPECT_EQ(recount, survey.value().install_counts);
}

TEST(Popcon, ProfilesPreserveMarginals) {
  Repository repo;
  for (int i = 0; i < 6; ++i) {
    Package p;
    p.name = "p" + std::to_string(i);
    ASSERT_TRUE(repo.AddPackage(p).ok());
  }
  std::vector<double> marginals = {0.2, 0.2, 0.2, 0.05, 0.05, 0.9};
  PopconOptions options;
  options.installation_count = 60000;
  options.profile_count = 3;
  options.profile_boost = 3.0;
  auto survey = PopconSimulator::Run(repo, marginals, options);
  ASSERT_TRUE(survey.ok());
  // Profiled packages keep their average marginal; the >0.5 package is
  // exempted from profiling entirely.
  for (PackageId id = 0; id < 6; ++id) {
    EXPECT_NEAR(survey.value().InstallProbability(id), marginals[id], 0.02)
        << id;
  }
}

TEST(Popcon, ProfilesInduceSameProfileCorrelation) {
  Repository repo;
  for (int i = 0; i < 6; ++i) {
    Package p;
    p.name = "p" + std::to_string(i);
    ASSERT_TRUE(repo.AddPackage(p).ok());
  }
  // Packages 0 and 3 share profile (id % 3 == 0); 0 and 1 do not.
  std::vector<double> marginals(6, 0.2);
  PopconOptions options;
  options.installation_count = 40000;
  options.retain_samples = 40000;
  options.profile_count = 3;
  options.profile_boost = 3.0;
  auto survey = PopconSimulator::Run(repo, marginals, options).take();
  auto joint = [&](PackageId a, PackageId b) {
    size_t both = 0;
    for (const auto& sample : survey.samples) {
      both += sample.Contains(a) && sample.Contains(b) ? 1 : 0;
    }
    return static_cast<double>(both) /
           static_cast<double>(survey.samples.size());
  };
  double same_profile = joint(0, 3);
  double cross_profile = joint(0, 1);
  double independent = survey.InstallProbability(0) *
                       survey.InstallProbability(3);
  EXPECT_GT(same_profile, independent * 1.5);  // strong positive corr.
  EXPECT_LT(cross_profile, independent * 1.2);
}

TEST(Popcon, Deterministic) {
  Repository repo;
  Package p;
  p.name = "p";
  ASSERT_TRUE(repo.AddPackage(p).ok());
  PopconOptions options;
  options.installation_count = 1000;
  auto a = PopconSimulator::Run(repo, {0.37}, options);
  auto b = PopconSimulator::Run(repo, {0.37}, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().install_counts, b.value().install_counts);
}

TEST(Popcon, ValidatesInputs) {
  Repository repo;
  Package p;
  p.name = "p";
  ASSERT_TRUE(repo.AddPackage(p).ok());
  PopconOptions options;
  EXPECT_FALSE(PopconSimulator::Run(repo, {0.5, 0.5}, options).ok());
  options.installation_count = 0;
  EXPECT_FALSE(PopconSimulator::Run(repo, {0.5}, options).ok());
}

// A chain (2 -> 1 -> 0), a diamond (6 -> {4, 5} -> 3), an always-installed
// package with a dependency (8 -> 7) and a standalone package (9). The
// direct marginals cover every sampler group: always (1.0), coins (0.95,
// 0.6), the 0.5 and 0.25 band edges, and bands down to (2^-11, 2^-10]
// (0.0006).
Repository BandRepo(std::vector<double>* marginals) {
  struct Spec {
    const char* name;
    double marginal;
    std::vector<PackageId> depends;
  };
  const std::vector<Spec> specs = {
      {"chain-base", 0.0, {}},      {"chain-mid", 0.26, {0}},
      {"chain-top", 0.95, {1}},     {"diamond-base", 0.03, {}},
      {"diamond-left", 0.6, {3}},   {"diamond-right", 0.0006, {3}},
      {"diamond-top", 0.1, {4, 5}}, {"essential-dep", 0.25, {}},
      {"essential", 1.0, {7}},      {"standalone", 0.5, {}},
  };
  Repository repo;
  for (const Spec& spec : specs) {
    Package p;
    p.name = spec.name;
    p.depends = spec.depends;
    EXPECT_TRUE(repo.AddPackage(p).ok());
    marginals->push_back(spec.marginal);
  }
  return repo;
}

// P(installation holds i) = 1 - P(no package whose closure contains i is
// picked directly), averaged over the profiles, which are equally likely.
std::vector<double> AnalyticInstallProbability(
    const Repository& repo, const std::vector<double>& marginals,
    const PopconOptions& options) {
  const uint32_t profiles = std::max<uint32_t>(options.profile_count, 1);
  const double boost =
      std::min(options.profile_boost, static_cast<double>(profiles));
  const double dampen =
      profiles > 1 ? (profiles - boost) / (profiles - 1.0) : 1.0;
  std::vector<double> probability(repo.size(), 0.0);
  const ClosureTable closures = repo.Closures();
  for (uint32_t profile = 0; profile < profiles; ++profile) {
    std::vector<double> none(repo.size(), 1.0);
    for (PackageId j = 0; j < repo.size(); ++j) {
      double marginal = marginals[j];
      if (profiles > 1 && marginal <= 0.5) {
        marginal = std::min(
            1.0, marginal * (j % profiles == profile ? boost : dampen));
      }
      for (PackageId i : closures.Of(j)) {
        none[i] *= 1.0 - marginal;
      }
    }
    for (PackageId i = 0; i < repo.size(); ++i) {
      probability[i] += (1.0 - none[i]) / profiles;
    }
  }
  return probability;
}

TEST(Popcon, SamplerMatchesAnalyticInstallProbability) {
  std::vector<double> marginals;
  Repository repo = BandRepo(&marginals);
  PopconOptions flat;
  flat.installation_count = 100000;
  // Profiles at the default 3x boost dampen the other profiles' packages to
  // 0; at 2x every arm keeps a nonzero marginal.
  PopconOptions profiled = flat;
  profiled.profile_count = 3;
  PopconOptions mild = profiled;
  mild.profile_boost = 2.0;
  for (const PopconOptions& options : {flat, profiled, mild}) {
    auto survey = PopconSimulator::Run(repo, marginals, options).take();
    ASSERT_EQ(survey.total_reporting, options.installation_count);
    const double n = static_cast<double>(survey.total_reporting);
    auto expected = AnalyticInstallProbability(repo, marginals, options);
    for (PackageId id = 0; id < repo.size(); ++id) {
      const double q = expected[id];
      const double sigma = std::sqrt(q * (1.0 - q) / n);
      EXPECT_NEAR(survey.InstallProbability(id), q, 4.0 * sigma + 1e-12)
          << repo.package(id).name << " with " << options.profile_count
          << " profiles at boost " << options.profile_boost;
    }
  }
}

// `count` packages, each depending on up to two earlier ones, with
// Zipf-like marginals and a few always-installed essentials.
Repository RandomRepo(size_t count, std::vector<double>* marginals) {
  Repository repo;
  Prng prng(0x5eed);
  for (size_t i = 0; i < count; ++i) {
    Package p;
    p.name = "p" + std::to_string(i);
    for (int d = 0; d < 2 && i > 0; ++d) {
      if (prng.NextBool(0.4)) {
        PackageId dep = static_cast<PackageId>(prng.NextBelow(i));
        if (std::find(p.depends.begin(), p.depends.end(), dep) ==
            p.depends.end()) {
          p.depends.push_back(dep);
        }
      }
    }
    EXPECT_TRUE(repo.AddPackage(p).ok());
    marginals->push_back(i % 50 == 0 ? 1.0 : 0.8 / static_cast<double>(i));
  }
  return repo;
}

TEST(Popcon, IdenticalAtAnyJobs) {
  std::vector<double> marginals;
  Repository repo = RandomRepo(300, &marginals);
  PopconOptions options;
  options.installation_count = 20000;
  options.report_rate = 0.8;
  options.retain_samples = 500;
  options.profile_count = 3;
  auto inline_run = PopconSimulator::Run(repo, marginals, options).take();
  ASSERT_EQ(inline_run.samples.size(), 500u);
  for (size_t jobs : {1, 2, 8}) {
    runtime::Executor executor(jobs);
    auto run =
        PopconSimulator::Run(repo, marginals, options, &executor).take();
    EXPECT_EQ(run.install_counts, inline_run.install_counts) << jobs;
    EXPECT_EQ(run.total_reporting, inline_run.total_reporting) << jobs;
    ASSERT_EQ(run.samples.size(), inline_run.samples.size()) << jobs;
    for (size_t i = 0; i < run.samples.size(); ++i) {
      EXPECT_EQ(run.samples[i].words(), inline_run.samples[i].words())
          << jobs << " jobs, sample " << i;
    }
  }
}

TEST(Popcon, RetainedSamplesStayWithinCap) {
  std::vector<double> marginals;
  Repository repo = RandomRepo(300, &marginals);
  PopconOptions options;
  options.installation_count = 50000;
  options.retain_samples = 100;
  auto survey = PopconSimulator::Run(repo, marginals, options).take();
  EXPECT_LE(survey.samples.size(), 100u);
  std::vector<uint64_t> recount(repo.size(), 0);
  for (const auto& sample : survey.samples) {
    for (PackageId id = 0; id < repo.size(); ++id) {
      recount[id] += sample.Contains(id) ? 1 : 0;
    }
  }
  for (PackageId id = 0; id < repo.size(); ++id) {
    EXPECT_LE(recount[id], survey.install_counts[id]) << id;
  }
}

// Pins the survey of SmallStudyOptions()'s repository: an FNV-1a chain
// over total_reporting, every install count and every retained sample
// word. It covers RunStudy's popcon options (report rate 0.97, here with
// retained samples) and 4 profiles at boost 3, each run inline and on a
// 4-thread executor.
TEST(Popcon, SurveyMatchesPinnedDigest) {
  const corpus::StudyOptions study = corpus::SmallStudyOptions();
  auto spec = corpus::BuildDistroSpec(study.distro);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto repo = corpus::DistroSynthesizer(spec.value()).BuildRepository();
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  std::vector<double> marginals;
  for (const corpus::PackagePlan& plan : spec.value().packages) {
    marginals.push_back(plan.target_marginal);
  }
  PopconOptions options;
  options.installation_count = study.distro.installation_count;
  options.report_rate = study.distro.popcon_report_rate;
  options.seed = study.distro.seed ^ 0x9e3779b97f4a7c15ULL;
  options.retain_samples = 300;
  PopconOptions profiled = options;
  profiled.profile_count = 4;
  profiled.profile_boost = 3.0;

  runtime::Executor pool(4);
  runtime::Executor* const executors[] = {nullptr, &pool};
  const std::pair<PopconOptions, uint64_t> cases[] = {
      {options, 0xdb85640f68a11d2au},
      {profiled, 0x8f658ebc87d3eed1u},
  };
  for (const auto& [popcon, want] : cases) {
    for (runtime::Executor* executor : executors) {
      auto survey =
          PopconSimulator::Run(repo.value(), marginals, popcon, executor);
      ASSERT_TRUE(survey.ok()) << survey.status().ToString();
      uint64_t digest = cache::HashU64(survey.value().total_reporting,
                                       cache::kFnvOffsetBasis);
      for (uint64_t count : survey.value().install_counts) {
        digest = cache::HashU64(count, digest);
      }
      for (const InstallationSet& sample : survey.value().samples) {
        for (uint64_t word : sample.words()) {
          digest = cache::HashU64(word, digest);
        }
      }
      EXPECT_EQ(survey.value().install_counts.size(), repo.value().size());
      EXPECT_EQ(survey.value().samples.size(), popcon.retain_samples);
      EXPECT_EQ(digest, want)
          << std::hex << digest << std::dec << ": " << popcon.profile_count
          << " profiles, " << (executor == nullptr ? "inline" : "4 threads");
    }
  }
}

TEST(ProgramKind, Names) {
  EXPECT_STREQ(ProgramKindName(ProgramKind::kElf), "ELF binary");
  EXPECT_STREQ(ProgramKindName(ProgramKind::kPython), "Python");
}

}  // namespace
}  // namespace lapis::package
