#include "src/util/prng.h"

#include <algorithm>
#include <cmath>

namespace lapis {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Prng::Prng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : state_) {
    s = sm.Next();
  }
  // Avoid the all-zero state (probability ~0 but cheap to guard).
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
    state_[0] = 0x853c49e6748fea9bULL;
  }
}

uint64_t Prng::NextBelow(uint64_t bound) {
  if (bound <= 1) {
    return 0;
  }
  // Rejection sampling to remove modulo bias.
  const uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

int64_t Prng::NextInRange(int64_t lo, int64_t hi) {
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBelow(span));
}

bool Prng::NextBool(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

Prng Prng::Fork(uint64_t stream_id) {
  // Derive a child seed from our own stream plus the id; consuming two
  // values keeps sibling forks decorrelated.
  uint64_t a = Next();
  uint64_t b = Next();
  SplitMix64 sm(a ^ (b + 0x9e3779b97f4a7c15ULL * (stream_id + 1)));
  return Prng(sm.Next());
}

ZipfSampler::ZipfSampler(uint64_t n, double s) {
  cdf_.resize(n);
  double total = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i), s);
    cdf_[i - 1] = total;
  }
  for (auto& c : cdf_) {
    c /= total;
  }
}

uint64_t ZipfSampler::Sample(Prng& prng) const {
  double u = prng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) {
    return cdf_.size();
  }
  return static_cast<uint64_t>(it - cdf_.begin()) + 1;
}

double ZipfSampler::Pmf(uint64_t rank) const {
  if (rank == 0 || rank > cdf_.size()) {
    return 0.0;
  }
  if (rank == 1) {
    return cdf_[0];
  }
  return cdf_[rank - 1] - cdf_[rank - 2];
}

}  // namespace lapis
