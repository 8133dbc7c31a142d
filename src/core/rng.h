// Deterministic pseudo-random number generation.
//
// The library must be reproducible across platforms and standard-library
// versions, so we implement the generators and the distributions ourselves
// instead of relying on std::mt19937 + std::*_distribution (whose outputs are
// implementation-defined for distributions).
//
//   * splitmix64       -- seeding / stream-splitting mixer.
//   * Xoshiro256**     -- main generator (Blackman & Vigna), 256-bit state.
//   * Rng              -- convenience wrapper with uniform / pick / shuffle
//                         helpers and cheap value-semantic copies.
//
// Rng::split(tag) derives an independent stream; experiment sweeps use it to
// give every repetition its own deterministic generator.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/error.h"

namespace sehc {

/// splitmix64 step; used for seeding and for deriving sub-streams.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** generator. Value-semantic, 32 bytes of state.
class Xoshiro256 {
 public:
  /// Seeds the four state words via splitmix64 so any seed (incl. 0) is safe.
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Returns the next 64 uniformly distributed bits.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// High-level RNG facade used throughout sehc.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : gen_(seed), seed_(seed) {}

  /// The seed this generator was constructed with.
  std::uint64_t seed() const { return seed_; }

  /// Next raw 64 bits.
  std::uint64_t bits() { return gen_.next(); }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection sampling).
  std::uint64_t below(std::uint64_t n) {
    SEHC_CHECK(n > 0, "Rng::below: n must be positive");
    // Rejection below threshold = 2^64 mod n avoids modulo bias. The
    // threshold is less than n, so a draw r >= n is accepted without
    // computing it.
    for (;;) {
      const std::uint64_t r = gen_.next();
      if (r >= n || r >= (0 - n) % n) return r % n;
    }
  }

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// Picks a uniformly random element index from a non-empty span size.
  std::size_t index(std::size_t size);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  template <typename T>
  void shuffle(std::vector<T>& values) {
    shuffle(std::span<T>(values));
  }

  /// Derives an independent deterministic sub-stream keyed by `tag`.
  Rng split(std::uint64_t tag) const;

 private:
  Xoshiro256 gen_;
  std::uint64_t seed_;
};

}  // namespace sehc
