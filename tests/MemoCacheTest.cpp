//===- tests/MemoCacheTest.cpp - the shared memo cache --------------------===//
//
// support/MemoCache behaviour that the three caches built on it (window,
// compile, plan) do not pin through their own tests: an entry a latch
// waiter holds survives eviction pressure and clear(), eviction follows
// one LRU order across shards, and capacity 0 counts without storing.
// The threaded case runs under TSan and ASan in CI.
//
//===----------------------------------------------------------------------===//

#include "support/MemoCache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>

using namespace ucc;

namespace {

TEST(MemoCache, EntryAWaiterHoldsSurvivesEvictionAndClear) {
  MemoCache<int, std::string> Cache(1);
  std::promise<void> Release;
  std::shared_future<void> Go = Release.get_future().share();
  std::atomic<int> Computes{0};
  auto Slow = [&] {
    ++Computes;
    Go.wait();
    return std::string("one");
  };

  std::string Owner, Waiter;
  MemoOutcome WaiterOutcome;
  std::thread OwnerThread([&] { Owner = Cache.getOrCompute(1, 1, Slow); });
  while (Cache.stats().Misses < 1)
    std::this_thread::yield();
  std::thread WaiterThread(
      [&] { Waiter = Cache.getOrCompute(1, 1, Slow, &WaiterOutcome); });
  while (Cache.stats().InflightWaits < 1)
    std::this_thread::yield();

  // Key 1 is in flight with a waiter parked on it. A clear and three
  // fills over the one-entry budget must leave it alone: the fills evict
  // each other and the budget overshoots by the in-flight entry instead.
  Cache.clear();
  for (int K = 2; K <= 4; ++K)
    EXPECT_EQ(Cache.getOrCompute(K, K, [K] { return std::to_string(K); }),
              std::to_string(K));
  Cache.clear();
  EXPECT_EQ(Cache.stats().Entries, 1u);

  Release.set_value();
  OwnerThread.join();
  WaiterThread.join();
  EXPECT_EQ(Computes.load(), 1);
  EXPECT_EQ(Owner, "one");
  EXPECT_EQ(Waiter, "one");
  EXPECT_TRUE(WaiterOutcome.Hit);
  EXPECT_TRUE(WaiterOutcome.Waited);

  MemoStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 4u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.InflightWaits, 1u);
  EXPECT_EQ(S.Evictions, 2u) << "3 evicted 2, then 4 evicted 3";
  EXPECT_EQ(S.Entries, 1u);
  // The filled entry is resident and answers without recomputing.
  EXPECT_EQ(Cache.getOrCompute(1, 1, [] { return std::string("two"); }),
            "one");
}

TEST(MemoCache, EvictsTheGloballyLeastRecentlyUsedEntry) {
  MemoPolicy Policy;
  Policy.Shards = 4;
  MemoCache<int, int> Cache(3, Policy);

  // A and D share a shard; B and C sit in other shards.
  int A = 1, B = 0, C = 0, D = 0;
  for (int K = 2; !B || !C || !D; ++K) {
    bool SameAsA = Cache.shardOf(K) == Cache.shardOf(A);
    if (SameAsA && !D)
      D = K;
    else if (!SameAsA && !B)
      B = K;
    else if (!SameAsA && !C && Cache.shardOf(K) != Cache.shardOf(B))
      C = K;
  }
  auto Hit = [&](int K) {
    MemoOutcome O;
    EXPECT_EQ(Cache.getOrCompute(K, K, [K] { return K; }, &O), K);
    return O.Hit;
  };

  EXPECT_FALSE(Hit(A));
  EXPECT_FALSE(Hit(B));
  EXPECT_FALSE(Hit(C));
  EXPECT_TRUE(Hit(A)); // recency, oldest first: B C A
  // Over budget: B goes although D's own shard holds A.
  EXPECT_FALSE(Hit(D));
  EXPECT_TRUE(Hit(A));
  EXPECT_TRUE(Hit(C));
  EXPECT_FALSE(Hit(B)) << "B was the least recently used entry";
  MemoStats S = Cache.stats();
  EXPECT_EQ(S.Evictions, 2u);
  EXPECT_EQ(S.Entries, 3u);
}

TEST(MemoCache, CapacityZeroCountsMissesWithoutResidency) {
  MemoPolicy Policy;
  Policy.Shards = 2;
  MemoCache<int, int> Cache(0, Policy);
  int Computes = 0;
  for (int Round = 0; Round < 3; ++Round)
    for (int K = 0; K < 4; ++K) {
      auto Compute = [&] {
        ++Computes;
        return 10 * K;
      };
      MemoOutcome O;
      EXPECT_EQ(Cache.getOrCompute(K, K, Compute, &O), 10 * K);
      EXPECT_FALSE(O.Hit);
      EXPECT_EQ(O.Shard, Cache.shardOf(static_cast<uint64_t>(K)));
    }
  EXPECT_EQ(Computes, 12);

  MemoStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 12u);
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Evictions, 0u);
  EXPECT_EQ(S.Entries, 0u);
  // Each miss is counted in the shard its key maps to.
  uint64_t InShardZero = 0;
  for (int K = 0; K < 4; ++K)
    InShardZero += Cache.shardOf(static_cast<uint64_t>(K)) == 0 ? 3 : 0;
  EXPECT_EQ(Cache.shardStats(0).Misses, InShardZero);
  EXPECT_EQ(Cache.shardStats(1).Misses, 12u - InShardZero);
}

} // namespace
