//===- support/MemoCache.h - exactly-once memo cache with LRU -------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memoization engine behind the window-solve cache
/// (regalloc/WindowCache.cpp), the function-level compile cache
/// (core/CompileCache.h) and the plan cache (serve/PlanService.cpp):
///
///  * entries live in collision chains under a caller-supplied 64-bit
///    hash, and a match is confirmed by a full `Key == Probe` compare;
///  * the first requester of a key computes outside the lock while
///    same-key requesters wait on its latch (a hit plus an in-flight
///    wait), holding the entry by shared_ptr so nothing frees it under
///    them;
///  * only ready entries sit in the per-shard LRU lists, so eviction pops
///    a tail in O(1) and never touches an in-flight entry; the capacity
///    counts every entry across all shards, and while a fill leaves it
///    exceeded the cache evicts its globally least recently used ready
///    entry: every shard's LRU tail carries a recency stamp from one
///    counter, and the oldest tail is found holding one shard lock at a
///    time;
///  * the plan cache adds N shards, a TinyLFU-flavored doorkeeper that
///    over budget admits a value only if it is hotter than the LRU
///    victim, and a lazy TTL.
///
/// The cache only reports what happened (MemoOutcome, MemoStats); each
/// caller turns that into its own telemetry counters.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_SUPPORT_MEMOCACHE_H
#define UCC_SUPPORT_MEMOCACHE_H

#include "support/Hash.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace ucc {

/// What one lookup did.
struct MemoOutcome {
  size_t Shard = 0;      ///< the shard the key maps to
  bool Hit = false;      ///< answered from the cache (latch waiters too)
  bool Waited = false;   ///< blocked on another thread's computation
  bool Expired = false;  ///< a stale entry was dropped first (then a miss)
  bool Rejected = false; ///< the computed value was refused residency
  uint32_t Evicted = 0;  ///< entries evicted to make room for this one
};

/// Exact accounting of one shard, or of all of them summed.
struct MemoStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t AdmissionRejects = 0;
  uint64_t TtlExpired = 0;
  uint64_t InflightWaits = 0;
  size_t Entries = 0; ///< resident entries, in-flight ones included
};

/// Sharding and residency policy beyond the capacity. The defaults give
/// one shard with plain LRU.
struct MemoPolicy {
  /// Clamped to at least 1.
  size_t Shards = 1;
  bool FrequencyAdmission = false;
  /// 0 = entries never expire.
  double TtlSeconds = 0;
  /// The TTL clock in seconds; read only when TtlSeconds > 0.
  std::function<double()> Clock;
};

template <typename Key, typename Value> class MemoCache {
public:
  /// \p Capacity bounds resident entries across all shards, in-flight
  /// ones included; 0 = pass-through.
  explicit MemoCache(size_t Capacity = SIZE_MAX, MemoPolicy P = MemoPolicy())
      : Capacity(Capacity), Policy(std::move(P)),
        NumShards(std::max<size_t>(Policy.Shards, 1)),
        Shards(new Shard[NumShards]) {}

  MemoCache(const MemoCache &) = delete;
  MemoCache &operator=(const MemoCache &) = delete;

  /// Returns the value for \p Probe, running \p Compute on a miss.
  /// \p Hash must be equal for equal keys; `Key == Probe` confirms a
  /// match and `Key(Probe)` builds the stored key.
  template <typename Probe, typename ComputeFn>
  Value getOrCompute(uint64_t Hash, const Probe &P, ComputeFn &&Compute,
                     MemoOutcome *Out = nullptr) {
    MemoOutcome Local;
    MemoOutcome &O = Out ? *Out : Local;
    O.Shard = shardOf(Hash);
    Shard &S = Shards[O.Shard];
    double Now = Policy.TtlSeconds > 0 ? Policy.Clock() : 0;

    std::unique_lock<std::mutex> Guard(S.Lock);
    if (Capacity == 0) {
      ++S.Counts.Misses;
      Guard.unlock();
      return Compute();
    }
    if (Policy.FrequencyAdmission)
      S.recordAccess(Hash);

    const std::shared_ptr<Entry> *Found = S.find(Hash, P);
    if (Found && (*Found)->Ready && Policy.TtlSeconds > 0 &&
        Now - (*Found)->FilledAt > Policy.TtlSeconds) {
      // Only Ready entries expire: an in-flight fill is by definition
      // fresh.
      dropLocked(S, **Found);
      ++S.Counts.TtlExpired;
      O.Expired = true;
      Found = nullptr;
    }
    if (Found) {
      Entry *E = Found->get();
      std::shared_ptr<Entry> Pin; // set only while waiting
      ++S.Counts.Hits;
      O.Hit = true;
      if (!E->Ready) {
        // Someone else is computing this key: wait for the latch. The pin
        // keeps the entry alive if it is evicted or cleared once filled.
        ++S.Counts.InflightWaits;
        O.Waited = true;
        Pin = *Found;
        S.Filled.wait(Guard, [&] { return E->Ready; });
      }
      if (E->InLru) {
        S.Lru.splice(S.Lru.begin(), S.Lru, E->LruPos);
        stamp(*E);
      }
      return E->V;
    }

    // Miss: publish an in-flight entry, then compute outside the lock so
    // other keys (and same-key waiters) make progress meanwhile.
    auto Owned = std::make_shared<Entry>(Hash, P);
    Entry &Mine = *Owned;
    S.Chains.emplace(Hash, std::move(Owned));
    ++S.Counts.Misses;
    Resident.fetch_add(1, std::memory_order_relaxed);
    uint32_t MyFreq = Policy.FrequencyAdmission ? S.estimate(Hash) : 0;
    Guard.unlock();

    Value V = Compute();

    // Enforce the budget before the new entry joins an LRU list, so it
    // can never be its own victim.
    while (Resident.load(std::memory_order_relaxed) > Capacity) {
      Shard *VS = oldestShard();
      if (!VS)
        break; // only in-flight entries are left; overshoot until filled
      std::lock_guard<std::mutex> VictimGuard(VS->Lock);
      if (VS->Lru.empty())
        continue; // emptied since the scan; look again
      Entry *Victim = VS->Lru.back();
      if (Policy.FrequencyAdmission && MyFreq <= VS->estimate(Victim->Hash)) {
        O.Rejected = true;
        break;
      }
      dropLocked(*VS, *Victim);
      ++O.Evicted;
    }

    double FilledAt = Policy.TtlSeconds > 0 ? Policy.Clock() : 0;
    Guard.lock();
    Mine.V = V;
    Mine.Ready = true;
    Mine.FilledAt = FilledAt;
    S.Counts.Evictions += O.Evicted;
    if (O.Rejected) {
      ++S.Counts.AdmissionRejects;
      dropLocked(S, Mine);
    } else {
      S.Lru.push_front(&Mine);
      Mine.LruPos = S.Lru.begin();
      Mine.InLru = true;
      stamp(Mine);
    }
    Guard.unlock();
    S.Filled.notify_all();
    return V;
  }

  size_t shardCount() const { return NumShards; }

  /// The shard \p Hash maps to. The splitmix finalizer decorrelates the
  /// shard choice from the chain map's bucket choice (libstdc++ hashes
  /// integer keys by identity).
  size_t shardOf(uint64_t Hash) const {
    if (NumShards == 1)
      return 0;
    return static_cast<size_t>(splitmix64(Hash) % NumShards);
  }

  /// Shard \p I's accounting, read under its lock.
  MemoStats shardStats(size_t I) const {
    std::lock_guard<std::mutex> Guard(Shards[I].Lock);
    MemoStats S = Shards[I].Counts;
    S.Entries = Shards[I].Chains.size();
    return S;
  }

  /// Every shard's accounting summed, each slice read under its lock.
  MemoStats stats() const {
    MemoStats Sum;
    for (size_t I = 0; I < NumShards; ++I) {
      MemoStats S = shardStats(I);
      Sum.Hits += S.Hits;
      Sum.Misses += S.Misses;
      Sum.Evictions += S.Evictions;
      Sum.AdmissionRejects += S.AdmissionRejects;
      Sum.TtlExpired += S.TtlExpired;
      Sum.InflightWaits += S.InflightWaits;
      Sum.Entries += S.Entries;
    }
    return Sum;
  }

  /// Drops every ready entry. In-flight entries survive (their owner will
  /// fill them and waiters are parked on them); accounting is kept and a
  /// clear is not an eviction.
  void clear() {
    for (size_t I = 0; I < NumShards; ++I) {
      Shard &S = Shards[I];
      std::lock_guard<std::mutex> Guard(S.Lock);
      while (!S.Lru.empty())
        dropLocked(S, *S.Lru.back());
    }
  }

private:
  struct Entry {
    template <typename Probe>
    Entry(uint64_t Hash, const Probe &P) : Hash(Hash), K(P) {}

    uint64_t Hash;
    Key K;
    Value V{};
    bool Ready = false; ///< V is filled in
    bool InLru = false; ///< resident and ready: linked at LruPos
    uint64_t Tick = 0;  ///< recency stamp of the last fill or hit
    double FilledAt = 0;
    typename std::list<Entry *>::iterator LruPos;
  };

  struct Shard {
    mutable std::mutex Lock;
    std::condition_variable Filled;
    /// Hash -> collision chain: every resident entry, in-flight ones
    /// included. The chain owns its entries.
    std::unordered_multimap<uint64_t, std::shared_ptr<Entry>> Chains;
    /// Ready entries, most recently used first.
    std::list<Entry *> Lru;
    MemoStats Counts; ///< Entries unused: it is Chains.size()

    /// Two-probe min sketch of access frequency (the doorkeeper's
    /// memory), halved every 8192 recorded accesses so estimates stay
    /// recency-biased.
    std::array<uint8_t, 1024> Freq{};
    uint32_t SketchOps = 0;

    template <typename Probe>
    const std::shared_ptr<Entry> *find(uint64_t Hash, const Probe &P) const {
      auto [It, End] = Chains.equal_range(Hash);
      for (; It != End; ++It)
        if (It->second->K == P)
          return &It->second;
      return nullptr;
    }

    void recordAccess(uint64_t Hash) {
      uint8_t &A = Freq[Hash & 1023];
      uint8_t &B = Freq[(Hash >> 32) & 1023];
      if (A < 255)
        ++A;
      if (B < 255)
        ++B;
      if (++SketchOps >= 8192) {
        for (uint8_t &C : Freq)
          C = static_cast<uint8_t>(C >> 1);
        SketchOps = 0;
      }
    }

    uint32_t estimate(uint64_t Hash) const {
      return std::min(Freq[Hash & 1023], Freq[(Hash >> 32) & 1023]);
    }
  };

  /// Stamps a just-used entry. One shard needs no stamps: its LRU list
  /// is already the global order.
  void stamp(Entry &E) {
    if (NumShards > 1)
      E.Tick = Recency.fetch_add(1, std::memory_order_relaxed);
  }

  /// The shard whose LRU tail is the least recently used ready entry, or
  /// null when no shard holds a ready entry. Locks one shard at a time,
  /// so under concurrency the answer may be stale by the time it is used.
  Shard *oldestShard() {
    Shard *Oldest = nullptr;
    uint64_t OldestTick = UINT64_MAX;
    for (size_t I = 0; I < NumShards; ++I) {
      std::lock_guard<std::mutex> Guard(Shards[I].Lock);
      if (!Shards[I].Lru.empty() && Shards[I].Lru.back()->Tick <= OldestTick) {
        Oldest = &Shards[I];
        OldestTick = Oldest->Lru.back()->Tick;
      }
    }
    return Oldest;
  }

  /// Unlinks \p E from \p S (chain and LRU list). The chain's shared_ptr
  /// is released, so \p E is freed here unless a waiter pins it.
  void dropLocked(Shard &S, Entry &E) {
    if (E.InLru) {
      S.Lru.erase(E.LruPos);
      E.InLru = false;
    }
    Resident.fetch_sub(1, std::memory_order_relaxed);
    auto [It, End] = S.Chains.equal_range(E.Hash);
    for (; It != End; ++It)
      if (It->second.get() == &E) {
        S.Chains.erase(It);
        return;
      }
  }

  const size_t Capacity;
  MemoPolicy Policy;
  size_t NumShards;
  std::unique_ptr<Shard[]> Shards;
  std::atomic<size_t> Resident{0};
  std::atomic<uint64_t> Recency{0};
};

} // namespace ucc

#endif // UCC_SUPPORT_MEMOCACHE_H
