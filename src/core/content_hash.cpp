#include "core/content_hash.h"

#include <cstring>

namespace sehc {

std::uint64_t content_hash64(std::string_view text) {
  std::uint64_t state = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  for (const char c : text) {
    state ^= static_cast<unsigned char>(c);
    state *= 0x100000001b3ULL;
  }
  return state;
}

namespace {

// Odd 64-bit constants: the golden ratio and splitmix64's multipliers.
constexpr std::uint64_t kKeyHashSalt[4] = {
    0x9e3779b97f4a7c15ULL, 0xbf58476d1ce4e5b9ULL, 0x94d049bb133111ebULL,
    0xd6e8feb86659fd93ULL};

/// The 128-bit product of a and b, high half xor low half.
std::uint64_t fold_mul(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(product) ^
         static_cast<std::uint64_t>(product >> 64);
}

/// The 8 native-order bytes at p, at any alignment.
std::uint64_t word_at(const char* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof w);
  return w;
}

}  // namespace

std::uint64_t key_hash64(std::string_view bytes) {
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t lane[4] = {kKeyHashSalt[0], kKeyHashSalt[1], kKeyHashSalt[2],
                           kKeyHashSalt[3]};
  // The lanes carry no dependency on each other, so the four multiplies of
  // a step overlap.
  for (; n >= 64; p += 64, n -= 64) {
    for (std::size_t i = 0; i < 4; ++i) {
      lane[i] = fold_mul(word_at(p + 16 * i) ^ kKeyHashSalt[i],
                         word_at(p + 16 * i + 8) ^ lane[i]);
    }
  }
  std::uint64_t h = lane[0];
  for (std::size_t i = 1; i < 4; ++i) {
    h = fold_mul(h ^ kKeyHashSalt[i], lane[i]);
  }

  // The last 0-63 bytes: 16 at a time, the final 0-16 zero-padded. The
  // length, folded in last, tells the padding from data.
  for (; n > 16; p += 16, n -= 16) {
    h = fold_mul(word_at(p) ^ kKeyHashSalt[0], word_at(p + 8) ^ h);
  }
  char last[16] = {};
  if (n > 0) std::memcpy(last, p, n);
  h = fold_mul(word_at(last) ^ kKeyHashSalt[1], word_at(last + 8) ^ h);
  return fold_mul(h ^ kKeyHashSalt[2], bytes.size() ^ kKeyHashSalt[3]);
}

}  // namespace sehc
