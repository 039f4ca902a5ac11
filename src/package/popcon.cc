#include "src/package/popcon.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "src/runtime/parallel.h"

namespace lapis::package {

namespace {

// Installations are split over this many shards whatever the executor's
// thread count, so a survey is identical at any --jobs.
constexpr uint64_t kShardCount = 64;

// Packages with marginal in (2^-k-1, 2^-k]: a draw skips geometrically at
// p = 2^-k and keeps the package it lands on with probability `accept`.
struct Band {
  struct Member {
    PackageId id;
    double accept;  // marginal * 2^k, in (0.5, 1]
  };
  double inv_log_miss = 0.0;  // 1 / log(1 - 2^-k)
  std::vector<Member> members;
};

// Every package a draw may pick, grouped by its marginal.
struct DrawPlan {
  std::vector<PackageId> always;                    // marginal 1
  std::vector<std::pair<PackageId, double>> coins;  // marginal in (0.5, 1)
  std::map<int, Band> bands;                        // band k: marginal <= 0.5

  // Files `id` under `marginal`, with NextBool's reading of it: <= 0 and
  // NaN never install, >= 1 always does.
  void Add(PackageId id, double marginal) {
    if (!(marginal > 0.0)) {
      return;
    }
    if (marginal >= 1.0) {
      always.push_back(id);
    } else if (marginal > 0.5) {
      coins.emplace_back(id, marginal);
    } else {
      int exponent = 0;
      double fraction = std::frexp(marginal, &exponent);
      int k = fraction == 0.5 ? 1 - exponent : -exponent;
      auto [it, fresh] = bands.try_emplace(k);
      if (fresh) {
        it->second.inv_log_miss = 1.0 / std::log1p(-std::ldexp(1.0, -k));
      }
      it->second.members.push_back({id, std::ldexp(marginal, k)});
    }
  }
};

// Failures before the first success of a Bernoulli(p) sequence, given
// 1 / log(1 - p), capped at `limit`.
size_t Skip(Prng& prng, double inv_log_miss, size_t limit) {
  double gap = std::floor(std::log(1.0 - prng.NextDouble()) * inv_log_miss);
  return gap < static_cast<double>(limit) ? static_cast<size_t>(gap) : limit;
}

// Calls pick(id) for each package of `plan` one installation draws
// directly, passing over those `keep` rejects.
template <typename Keep, typename Pick>
void Draw(const DrawPlan& plan, Prng& prng, Keep keep, Pick pick) {
  for (PackageId id : plan.always) {
    if (keep(id)) {
      pick(id);
    }
  }
  for (const auto& [id, marginal] : plan.coins) {
    if (keep(id) && prng.NextDouble() < marginal) {
      pick(id);
    }
  }
  for (const auto& [k, band] : plan.bands) {
    const size_t size = band.members.size();
    for (size_t i = Skip(prng, band.inv_log_miss, size); i < size;
         i += 1 + Skip(prng, band.inv_log_miss, size)) {
      const Band::Member& member = band.members[i];
      if (keep(member.id) && prng.NextDouble() < member.accept) {
        pick(member.id);
      }
    }
  }
}

// First of the installations [0, installs) that shard `shard` runs:
// installs * shard / kShardCount, without overflow.
uint64_t ShardStart(uint64_t installs, uint64_t shard) {
  return installs / kShardCount * shard +
         installs % kShardCount * shard / kShardCount;
}

// One shard's installations, tallied.
struct ShardSurvey {
  std::vector<uint64_t> install_counts;
  uint64_t total_reporting = 0;
  std::vector<InstallationSet> samples;
};

}  // namespace

size_t InstallationSet::CountInstalled() const {
  size_t count = 0;
  for (uint64_t word : bits_) {
    count += static_cast<size_t>(__builtin_popcountll(word));
  }
  return count;
}

Result<PopconSurvey> PopconSimulator::Run(
    const Repository& repository, const std::vector<double>& target_marginals,
    const PopconOptions& options, runtime::Executor* executor) {
  const size_t n = repository.size();
  if (target_marginals.size() != n) {
    return InvalidArgumentError("marginals size mismatch");
  }
  if (options.installation_count == 0) {
    return InvalidArgumentError("installation_count must be positive");
  }

  // Every closure once, up front; sampling touches them constantly.
  const ClosureTable closures = repository.Closures();

  const uint32_t profiles = options.profile_count;
  double boost = options.profile_boost;
  if (profiles > 1 && boost > static_cast<double>(profiles)) {
    boost = static_cast<double>(profiles);  // keep the dampened arm >= 0
  }
  const double dampen =
      profiles > 1 ? (static_cast<double>(profiles) - boost) /
                         (static_cast<double>(profiles) - 1.0)
                   : 1.0;

  // `fixed` holds the packages profiles leave alone. With profiles, a
  // package of marginal <= 0.5 sits in boosted[id % profiles] at its
  // boosted marginal and in `dampened` at its dampened one; an
  // installation of profile p draws boosted[p], and `dampened` minus the
  // packages of profile p.
  DrawPlan fixed;
  DrawPlan dampened;
  std::vector<DrawPlan> boosted(profiles > 1 ? std::min<size_t>(profiles, n)
                                             : 0);
  for (PackageId id = 0; id < n; ++id) {
    const double marginal = target_marginals[id];
    if (profiles > 1 && marginal <= 0.5) {
      boosted[id % profiles].Add(id, std::min(1.0, marginal * boost));
      dampened.Add(id, std::min(1.0, marginal * dampen));
    } else {
      fixed.Add(id, marginal);
    }
  }

  const uint64_t installs = options.installation_count;
  const uint64_t quota = options.retain_samples / kShardCount +
                         (options.retain_samples % kShardCount != 0 ? 1 : 0);
  auto run_shard = [&](size_t shard) {
    ShardSurvey out;
    out.install_counts.assign(n, 0);
    // stamps[id] == generation: this installation holds `id`.
    std::vector<uint64_t> stamps(n, 0);
    std::vector<PackageId> installed;
    Prng prng = Prng(options.seed).Fork(shard);
    uint64_t generation = 0;
    // Installs `id`'s closure unless this installation already holds `id`,
    // and with it (closures are transitive) the whole closure.
    auto pick = [&](PackageId id) {
      if (stamps[id] == generation) {
        return;
      }
      for (PackageId member : closures.Of(id)) {
        if (stamps[member] != generation) {
          stamps[member] = generation;
          installed.push_back(member);
        }
      }
    };
    auto keep_all = [](PackageId) { return true; };

    const uint64_t first = ShardStart(installs, shard);
    const uint64_t last = ShardStart(installs, shard + 1);
    for (uint64_t inst = first; inst < last; ++inst) {
      ++generation;
      installed.clear();
      const auto profile =
          profiles > 1 ? static_cast<uint32_t>(prng.NextBelow(profiles)) : 0;
      Draw(fixed, prng, keep_all, pick);
      if (profiles > 1) {
        if (profile < boosted.size()) {
          Draw(boosted[profile], prng, keep_all, pick);
        }
        Draw(
            dampened, prng,
            [&](PackageId id) { return id % profiles != profile; }, pick);
      }
      if (!prng.NextBool(options.report_rate)) {
        continue;
      }
      ++out.total_reporting;
      for (PackageId id : installed) {
        ++out.install_counts[id];
      }
      if (out.samples.size() < quota) {
        InstallationSet sample(n);
        for (PackageId id : installed) {
          sample.Add(id);
        }
        out.samples.push_back(std::move(sample));
      }
    }
    return out;
  };
  auto shards = runtime::ParallelMap(executor, kShardCount, run_shard);

  PopconSurvey survey;
  survey.install_counts.assign(n, 0);
  runtime::FoldInOrder(shards, [&](size_t, ShardSurvey& shard) {
    survey.total_reporting += shard.total_reporting;
    for (size_t id = 0; id < n; ++id) {
      survey.install_counts[id] += shard.install_counts[id];
    }
    for (InstallationSet& sample : shard.samples) {
      if (survey.samples.size() == options.retain_samples) {
        break;
      }
      survey.samples.push_back(std::move(sample));
    }
  });
  return survey;
}

}  // namespace lapis::package
