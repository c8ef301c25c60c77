// Deterministic, splittable pseudo-random number generation.
//
// Every stochastic decision in the simulator draws from an lts::Rng seeded
// explicitly by the experiment harness. Determinism is what makes the
// counterfactual evaluation in exp/evaluate exact: re-running a scenario with
// a different driver node replays the identical background-load schedule.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/common.hpp"

namespace lts {

/// xoshiro256** by Blackman & Vigna: fast, high-quality, tiny state.
/// Satisfies UniformRandomBitGenerator so it plugs into <random> if needed,
/// but the member helpers below cover everything LTS uses.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the stream via SplitMix64 so that nearby seeds give uncorrelated
  /// streams (raw xoshiro seeding from small integers is weak).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : state_) {
      // SplitMix64 step.
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derives an independent child stream; used to give each simulator
  /// component its own stream so adding draws in one component does not
  /// perturb another (critical for counterfactual replay).
  Rng split() { return Rng((*this)() ^ 0xd1b54a32d192ed03ULL); }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    LTS_ASSERT(lo <= hi);
    const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
    // Lemire's multiply-shift rejection method for unbiased bounded draws.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * range;
    auto l = static_cast<std::uint64_t>(m);
    if (l < range) {
      const std::uint64_t threshold = (-range) % range;
      while (l < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * range;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return lo + static_cast<std::int64_t>(m >> 64);
  }

  /// Standard normal via Marsaglia polar method.
  double normal() {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    have_spare_ = true;
    return u * factor;
  }

  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Lognormal with the *median* at `median` and shape sigma. Used for task
  /// runtime jitter: multiplicative, positively skewed, median-preserving.
  double lognormal_median(double median, double sigma) {
    return median * std::exp(sigma * normal());
  }

  double exponential(double mean) {
    double u;
    do {
      u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples k distinct indices from [0, n) without replacement.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k) {
    std::vector<std::size_t> pool;
    sample_without_replacement(n, k, pool);
    return pool;
  }

  /// Allocation-reusing overload: fills `out` with the sample. Draws the
  /// identical sequence as the returning overload (same generator calls,
  /// same swaps), so callers can switch without perturbing seeded results.
  void sample_without_replacement(std::size_t n, std::size_t k,
                                  std::vector<std::size_t>& out) {
    LTS_ASSERT(k <= n);
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(static_cast<std::int64_t>(i),
                      static_cast<std::int64_t>(n) - 1));
      using std::swap;
      swap(out[i], out[j]);
    }
    out.resize(k);
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace lts
