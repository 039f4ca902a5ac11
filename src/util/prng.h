// Deterministic pseudo-random number generation for the corpus simulator.
//
// The corpus generator and popularity-contest simulator must be reproducible
// bit-for-bit across runs and platforms, so lapis carries its own PRNG
// (xoshiro256**, seeded via SplitMix64) rather than relying on <random>'s
// implementation-defined distributions.

#ifndef LAPIS_SRC_UTIL_PRNG_H_
#define LAPIS_SRC_UTIL_PRNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace lapis {

// SplitMix64: used to expand a single seed into xoshiro state.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();

 private:
  uint64_t state_;
};

// xoshiro256** 1.0 (Blackman & Vigna), public domain reference algorithm.
class Prng {
 public:
  explicit Prng(uint64_t seed);

  // Uniform 64-bit value. Defined inline: the survey sampler draws in its
  // innermost loop.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound), bias-corrected. bound must be > 0.
  uint64_t NextBelow(uint64_t bound);

  // Uniform in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  // Uniform double in [0, 1): 53 high bits, full double precision.
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // True with probability p (clamped to [0,1]).
  bool NextBool(double p);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    if (items.empty()) {
      return;
    }
    for (size_t i = items.size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBelow(i + 1));
      std::swap(items[i], items[j]);
    }
  }

  // Split off an independent child stream (for per-package determinism that
  // is robust against reordering of generation steps).
  Prng Fork(uint64_t stream_id);

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

// Bounded Zipf(s) sampler over ranks 1..n using inverse-CDF with a
// precomputed table. Used to model package installation popularity, which
// the Debian popcon data shows to be heavy-tailed.
class ZipfSampler {
 public:
  // n >= 1; s > 0 (s ~1.0 matches popcon-like popularity decay).
  ZipfSampler(uint64_t n, double s);

  // Returns a rank in [1, n]; rank 1 is the most popular.
  uint64_t Sample(Prng& prng) const;

  // Probability mass of a given rank.
  double Pmf(uint64_t rank) const;

 private:
  std::vector<double> cdf_;  // cdf_[i] = P(rank <= i+1)
};

}  // namespace lapis

#endif  // LAPIS_SRC_UTIL_PRNG_H_
