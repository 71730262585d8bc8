//===- support/Hash.h - FNV-1a and splitmix64 -----------------------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's two hashes: 64-bit FNV-1a for cache keys (window solves,
/// compile results, plan pairs) and the version store's persisted source
/// hashes, and the splitmix64 finalizer for mixing one 64-bit value (RNG
/// seeding, per-link simulator draws, plan-cache shard choice).
///
//===----------------------------------------------------------------------===//

#ifndef UCC_SUPPORT_HASH_H
#define UCC_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>

namespace ucc {

/// The standard 64-bit FNV-1a offset basis.
constexpr uint64_t Fnv1aBasis = 0xcbf29ce484222325ULL;

/// The standard basis with its last decimal digit dropped. The version
/// store's `source_hash` (persisted in manifest.json) and the plan cache's
/// content keys have always been seeded with it, so it stays: changing it
/// would make every existing manifest disagree with a re-hash.
constexpr uint64_t Fnv1aShortBasis = 1469598103934665603ULL;

/// FNV-1a over \p Len bytes, continuing from \p H (pass a previous result
/// to hash several buffers as one stream).
inline uint64_t fnv1a(const void *Data, size_t Len, uint64_t H = Fnv1aBasis) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// The splitmix64 finalizer: a bijective 64-bit mix.
inline uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

} // namespace ucc

#endif // UCC_SUPPORT_HASH_H
