#include "core/content_hash.h"

namespace sehc {

std::uint64_t content_hash64(std::string_view text) {
  std::uint64_t state = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  for (const char c : text) {
    state ^= static_cast<unsigned char>(c);
    state *= 0x100000001b3ULL;
  }
  return state;
}

}  // namespace sehc
