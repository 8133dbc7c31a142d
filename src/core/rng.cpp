#include "core/rng.h"

namespace sehc {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

double Rng::uniform() {
  // 53 random bits -> double in [0, 1).
  return static_cast<double>(gen_.next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  SEHC_CHECK(lo <= hi, "Rng::uniform: lo must be <= hi");
  return lo + (hi - lo) * uniform();
}

bool Rng::chance(double p) { return uniform() < p; }

std::size_t Rng::index(std::size_t size) {
  SEHC_CHECK(size > 0, "Rng::index: empty range");
  return static_cast<std::size_t>(below(size));
}

Rng Rng::split(std::uint64_t tag) const {
  std::uint64_t mixer = seed_ ^ (tag * 0xD1B54A32D192ED03ULL) ^
                        0x8CB92BA72F3D8DD7ULL;
  return Rng(splitmix64(mixer));
}

}  // namespace sehc
