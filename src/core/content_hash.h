// Content hashing: the one hashing discipline behind every persisted
// content-addressed identity in the library — campaign spec / result-store
// identity (exp/result_store), the report's bootstrap seeds, and the
// benchmark digests. Callers build a canonical string (fixed field order,
// fixed numeric formatting) and hash that, so two semantically identical
// inputs always collide on purpose and two different inputs practically
// never do. The daemon's in-memory cache keys (serve/cache.h) are never
// persisted and use std::hash instead, which reads 8 bytes per step.
#pragma once

#include <cstdint>
#include <string_view>

namespace sehc {

/// FNV-1a 64-bit hash. Simple, stable across platforms and standard-library
/// versions (an integrity/identity check, not a security boundary).
std::uint64_t content_hash64(std::string_view text);

}  // namespace sehc
