// Content hashing, in two kinds.
//
// content_hash64 (FNV-1a) is the one hashing discipline behind every
// persisted content-addressed identity in the library: campaign spec /
// result-store identity (exp/result_store), the report's bootstrap seeds,
// and the benchmark digests. Callers build a canonical string (fixed field
// order, fixed numeric formatting) and hash that, so two semantically
// identical inputs always collide on purpose and two different inputs
// practically never do. Its values are published and must never change.
//
// key_hash64 keys the daemon's in-memory caches (serve/cache.h). Those keys
// are never persisted or printed, and every cache compares full keys on a
// hash match, so its values may change between versions and a collision
// costs a cache miss, never a wrong answer. It reads 64 bytes per step,
// where FNV-1a reads one.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sehc {

/// FNV-1a 64-bit hash. Simple, stable across platforms and standard-library
/// versions (an integrity/identity check, not a security boundary).
std::uint64_t content_hash64(std::string_view text);

/// `hash` as 16 lowercase hex digits, zero-padded: how stores, reports and
/// `sehc_campaign show` print a spec hash.
std::string hash_to_hex(std::uint64_t hash);

/// In-memory key hash: four independent 64-bit lanes, each absorbing 16
/// bytes of every 64-byte step through a 64x64->128-bit multiply whose
/// halves are folded by xor; the tail is absorbed 16 bytes at a time, then
/// the length. Not stable across versions, not a security boundary.
std::uint64_t key_hash64(std::string_view bytes);

}  // namespace sehc
