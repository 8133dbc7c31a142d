// Content hashing: the one hashing discipline behind every
// content-addressed identity in the library — campaign spec / result-store
// identity (exp/result_store) and the serving layer's request cache keys
// (serve/cache). Callers build a canonical string (fixed field order, fixed
// numeric formatting) and hash that, so two semantically identical inputs
// always collide on purpose and two different inputs practically never do.
#pragma once

#include <cstdint>
#include <string_view>

namespace sehc {

/// FNV-1a 64-bit offset basis: the state of an empty text.
inline constexpr std::uint64_t kContentHashBasis = 0xcbf29ce484222325ULL;

/// FNV-1a 64-bit hash. Simple, stable across platforms and standard-library
/// versions (an integrity/identity check, not a security boundary).
///
/// FNV-1a is a stream: the hash of a text is the state after its last byte,
/// so `content_hash64(b, content_hash64(a)) == content_hash64(a + b)`. A
/// caller that holds the hash of a long prefix extends it over a suffix
/// without rehashing the prefix.
std::uint64_t content_hash64(std::string_view text,
                             std::uint64_t state = kContentHashBasis);

}  // namespace sehc
