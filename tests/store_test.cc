#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "store/kv_store.h"
#include "store/lock_table.h"
#include "store/prepared_set.h"

namespace natto::store {
namespace {

// ---------------------------------------------------------------------------
// KvStore
// ---------------------------------------------------------------------------

TEST(KvStoreTest, UnwrittenKeyReadsDefaultAtVersionZero) {
  KvStore kv([](Key k) { return static_cast<Value>(k * 10); });
  VersionedValue v = kv.Get(7);
  EXPECT_EQ(v.value, 70);
  EXPECT_EQ(v.version, 0u);
  EXPECT_EQ(kv.materialized_size(), 0u);
}

TEST(KvStoreTest, ApplyBumpsVersion) {
  KvStore kv;
  kv.Apply(1, 100, /*writer=*/5);
  VersionedValue v = kv.Get(1);
  EXPECT_EQ(v.value, 100);
  EXPECT_EQ(v.version, 1u);
  EXPECT_EQ(v.writer, 5u);
  kv.Apply(1, 200, 6);
  EXPECT_EQ(kv.Get(1).version, 2u);
  EXPECT_EQ(kv.Get(1).value, 200);
}

TEST(KvStoreTest, NullDefaultIsZero) {
  KvStore kv;
  EXPECT_EQ(kv.Get(123).value, 0);
}

TEST(KvStoreTest, MaterializedSizeTracksWriteFootprintNotKeyspace) {
  // The paper's datasets (1M keys) are lazy: only written keys take memory.
  KvStore kv([](Key k) { return static_cast<Value>(k); });
  EXPECT_EQ(kv.materialized_size(), 0u);
  // Reads never materialize, no matter how many distinct keys are touched.
  for (Key k = 0; k < 1000; ++k) kv.Get(k);
  EXPECT_EQ(kv.materialized_size(), 0u);
  kv.Apply(10, 1, /*writer=*/1);
  kv.Apply(20, 2, /*writer=*/1);
  EXPECT_EQ(kv.materialized_size(), 2u);
  // Rewriting a materialized key must not grow the footprint.
  kv.Apply(10, 3, /*writer=*/2);
  EXPECT_EQ(kv.materialized_size(), 2u);
}

TEST(KvStoreTest, FirstApplyShadowsDefaultAndStartsAtVersionOne) {
  KvStore kv([](Key k) { return static_cast<Value>(k * 10); });
  // Reading first must not pin the default: the later write wins.
  EXPECT_EQ(kv.Get(4).value, 40);
  kv.Apply(4, 7, /*writer=*/99);
  VersionedValue v = kv.Get(4);
  EXPECT_EQ(v.value, 7);
  EXPECT_EQ(v.version, 1u);  // defaults are version 0; first write is 1
  EXPECT_EQ(v.writer, 99u);
  // Neighbouring unwritten keys still read their defaults.
  EXPECT_EQ(kv.Get(5).value, 50);
  EXPECT_EQ(kv.Get(5).version, 0u);
}

TEST(KvStoreTest, WriterAttributionFollowsLatestApply) {
  KvStore kv;
  kv.Apply(1, 10, /*writer=*/3);
  kv.Apply(1, 20, /*writer=*/8);
  kv.Apply(1, 30, /*writer=*/5);
  VersionedValue v = kv.Get(1);
  EXPECT_EQ(v.version, 3u);
  EXPECT_EQ(v.writer, 5u);  // OCC validation pins blame on the last writer
  EXPECT_EQ(v.value, 30);
}

TEST(KvStoreTest, MaterializedKeyNoLongerConsultsDefaultFn) {
  int default_calls = 0;
  KvStore kv([&default_calls](Key) {
    ++default_calls;
    return Value{77};
  });
  kv.Apply(9, 1, /*writer=*/1);
  kv.Get(9);
  EXPECT_EQ(default_calls, 0);  // hot keys bypass the lazy path entirely
  kv.Get(10);
  EXPECT_EQ(default_calls, 1);
}

// ---------------------------------------------------------------------------
// PreparedSet
// ---------------------------------------------------------------------------

TEST(PreparedSetTest, ReadReadDoesNotConflict) {
  PreparedSet p;
  p.Add(1, /*reads=*/{10}, /*writes=*/{});
  EXPECT_FALSE(p.HasConflict({10}, {}));
}

TEST(PreparedSetTest, ReadWriteConflicts) {
  PreparedSet p;
  p.Add(1, {10}, {});
  EXPECT_TRUE(p.HasConflict({}, {10}));  // new write vs prepared read
  PreparedSet q;
  q.Add(1, {}, {10});
  EXPECT_TRUE(q.HasConflict({10}, {}));  // new read vs prepared write
}

TEST(PreparedSetTest, WriteWriteConflicts) {
  PreparedSet p;
  p.Add(1, {}, {10});
  EXPECT_TRUE(p.HasConflict({}, {10}));
}

TEST(PreparedSetTest, RemoveClearsFootprint) {
  PreparedSet p;
  p.Add(1, {10}, {11});
  p.Remove(1);
  EXPECT_FALSE(p.HasConflict({11}, {10, 11}));
  EXPECT_EQ(p.size(), 0u);
}

TEST(PreparedSetTest, ConflictingListsAllAndDeduplicates) {
  PreparedSet p;
  p.Add(1, {}, {10, 11});
  p.Add(2, {11}, {});
  auto c = p.Conflicting({10}, {11});
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], 1u);
  EXPECT_EQ(c[1], 2u);
}

TEST(PreparedSetTest, RemoveUnknownIsNoop) {
  PreparedSet p;
  p.Remove(42);
  EXPECT_EQ(p.size(), 0u);
}

TEST(PreparedSetTest, RepeatedAndReadWrittenKeysLeaveNoResidue) {
  PreparedSet p;
  p.Add(1, {10, 10, 11}, {11, 12, 12});
  p.Add(2, {12}, {});
  EXPECT_EQ(p.Conflicting({11}, {}), std::vector<TxnId>({1}));
  EXPECT_EQ(p.Conflicting({}, {12}), std::vector<TxnId>({1, 2}));
  p.Remove(1);
  EXPECT_FALSE(p.HasConflict({10, 11, 12}, {10, 11}));
  EXPECT_TRUE(p.HasConflict({}, {12}));
  p.Remove(2);
  EXPECT_FALSE(p.HasConflict({}, {10, 11, 12}));
}

/// Brute-force model: the footprints as plain lists, every query a scan.
struct ReferencePreparedSet {
  struct Footprint {
    std::vector<Key> reads;
    std::vector<Key> writes;
  };

  static bool Has(const std::vector<Key>& keys, Key k) {
    return std::find(keys.begin(), keys.end(), k) != keys.end();
  }

  static bool Conflicts(const Footprint& f, const std::vector<Key>& reads,
                        const std::vector<Key>& writes) {
    for (Key k : reads) {
      if (Has(f.writes, k)) return true;
    }
    for (Key k : writes) {
      if (Has(f.writes, k) || Has(f.reads, k)) return true;
    }
    return false;
  }

  std::vector<TxnId> Conflicting(const std::vector<Key>& reads,
                                 const std::vector<Key>& writes) const {
    std::vector<TxnId> out;
    for (const auto& [id, f] : footprints) {
      if (Conflicts(f, reads, writes)) out.push_back(id);
    }
    return out;  // the map walks ids in ascending order
  }

  std::map<TxnId, Footprint> footprints;
};

// Random Add/Remove/HasConflict/Conflicting against the brute-force model
// over eight hot keys. Footprints repeat keys and read and write the same
// key; removals also hit absent ids.
TEST(PreparedSetTest, MatchesBruteForceFootprints) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Rng rng(seed);
    auto keys = [&rng]() {
      std::vector<Key> out(static_cast<size_t>(rng.UniformInt(0, 4)));
      for (Key& k : out) k = static_cast<Key>(rng.UniformInt(0, 7));
      return out;
    };
    PreparedSet p;
    ReferencePreparedSet ref;
    for (int step = 0; step < 4000; ++step) {
      TxnId id = static_cast<TxnId>(rng.UniformInt(0, 15));
      switch (rng.UniformInt(0, 3)) {
        case 0:
          if (!ref.footprints.contains(id)) {
            std::vector<Key> reads = keys(), writes = keys();
            p.Add(id, reads, writes);
            ref.footprints[id] = {reads, writes};
          }
          break;
        case 1:
          p.Remove(id);
          ref.footprints.erase(id);
          break;
        case 2: {
          std::vector<Key> reads = keys(), writes = keys();
          ASSERT_EQ(p.HasConflict(reads, writes),
                    !ref.Conflicting(reads, writes).empty())
              << step;
          break;
        }
        default: {
          std::vector<Key> reads = keys(), writes = keys();
          ASSERT_EQ(p.Conflicting(reads, writes),
                    ref.Conflicting(reads, writes))
              << step;
        }
      }
      ASSERT_EQ(p.size(), ref.footprints.size()) << step;
      ASSERT_EQ(p.Contains(id), ref.footprints.contains(id)) << step;
    }
  }
}

// ---------------------------------------------------------------------------
// LockTable
// ---------------------------------------------------------------------------

TEST(LockTableTest, SharedLocksCoexist) {
  LockTable lt;
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kShared, 0, 0, nullptr).granted);
  EXPECT_TRUE(lt.Acquire(1, 101, LockMode::kShared, 0, 0, nullptr).granted);
  EXPECT_EQ(lt.Holders(1).size(), 2u);
}

TEST(LockTableTest, ExclusiveExcludes) {
  LockTable lt;
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr).granted);
  bool granted_late = false;
  auto res = lt.Acquire(1, 101, LockMode::kExclusive, 0, 1,
                        [&]() { granted_late = true; });
  EXPECT_FALSE(res.granted);
  ASSERT_EQ(res.blockers.size(), 1u);
  EXPECT_EQ(res.blockers[0], 100u);
  lt.Release(1, 100);
  EXPECT_TRUE(granted_late);
}

TEST(LockTableTest, ReacquireIsIdempotent) {
  LockTable lt;
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr).granted);
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kShared, 0, 0, nullptr).granted);
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr).granted);
}

TEST(LockTableTest, UpgradeWhenSoleHolder) {
  LockTable lt;
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kShared, 0, 0, nullptr).granted);
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr).granted);
  EXPECT_EQ(lt.Holders(1)[0].mode, LockMode::kExclusive);
}

TEST(LockTableTest, UpgradeWaitsForOtherSharers) {
  LockTable lt;
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kShared, 0, 0, nullptr).granted);
  EXPECT_TRUE(lt.Acquire(1, 101, LockMode::kShared, 0, 0, nullptr).granted);
  bool upgraded = false;
  auto res = lt.Acquire(1, 100, LockMode::kExclusive, 0, 0,
                        [&]() { upgraded = true; });
  EXPECT_FALSE(res.granted);
  lt.Release(1, 101);
  EXPECT_TRUE(upgraded);
  EXPECT_EQ(lt.Holders(1)[0].mode, LockMode::kExclusive);
}

TEST(LockTableTest, FifoGrantOrderWithinPriority) {
  LockTable lt;
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr).granted);
  std::vector<int> order;
  lt.Acquire(1, 101, LockMode::kExclusive, 0, 1, [&]() { order.push_back(101); });
  lt.Acquire(1, 102, LockMode::kExclusive, 0, 2, [&]() { order.push_back(102); });
  lt.Release(1, 100);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 101);
  lt.Release(1, 101);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[1], 102);
}

TEST(LockTableTest, HighPriorityWaiterOvertakesLow) {
  LockTable lt;
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr).granted);
  std::vector<int> order;
  lt.Acquire(1, 101, LockMode::kExclusive, /*priority=*/0, 1,
             [&]() { order.push_back(101); });
  lt.Acquire(1, 102, LockMode::kExclusive, /*priority=*/1, 2,
             [&]() { order.push_back(102); });
  lt.Release(1, 100);
  ASSERT_FALSE(order.empty());
  EXPECT_EQ(order[0], 102);  // high priority jumped the queue
}

TEST(LockTableTest, HighPriorityRequestBypassesLowWaiters) {
  LockTable lt;
  // Shared holder; a low-priority X waiter queues; a high-priority S request
  // should still be granted immediately (compatible with the holder, and
  // only lower-priority waiters queue ahead).
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kShared, 0, 0, nullptr).granted);
  lt.Acquire(1, 101, LockMode::kExclusive, 0, 1, nullptr);
  auto res = lt.Acquire(1, 102, LockMode::kShared, 1, 2, nullptr);
  EXPECT_TRUE(res.granted);
}

TEST(LockTableTest, SamePriorityRequestQueuesBehindWaiters) {
  LockTable lt;
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kShared, 0, 0, nullptr).granted);
  lt.Acquire(1, 101, LockMode::kExclusive, 0, 1, nullptr);
  // A same-priority S request must not starve the queued X waiter.
  auto res = lt.Acquire(1, 102, LockMode::kShared, 0, 2, nullptr);
  EXPECT_FALSE(res.granted);
}

TEST(LockTableTest, ReleaseAllFreesEverything) {
  LockTable lt;
  lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr);
  lt.Acquire(2, 100, LockMode::kShared, 0, 0, nullptr);
  bool granted = false;
  lt.Acquire(1, 101, LockMode::kExclusive, 0, 1, [&]() { granted = true; });
  lt.ReleaseAll(100);
  EXPECT_FALSE(lt.HoldsAny(100));
  EXPECT_TRUE(granted);
}

TEST(LockTableTest, CancelWaitUnblocksQueue) {
  LockTable lt;
  lt.Acquire(1, 100, LockMode::kShared, 0, 0, nullptr);
  lt.Acquire(1, 101, LockMode::kShared, 0, 0, nullptr);
  // 100's upgrade blocks the head of the queue.
  lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr);
  bool granted = false;
  lt.Acquire(1, 102, LockMode::kShared, 0, 1, [&]() { granted = true; });
  EXPECT_FALSE(granted);
  lt.CancelWait(1, 100);
  EXPECT_TRUE(granted);
}

TEST(LockTableTest, IsWaitingTracksState) {
  LockTable lt;
  lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr);
  EXPECT_FALSE(lt.IsWaiting(101));
  lt.Acquire(1, 101, LockMode::kExclusive, 0, 1, nullptr);
  EXPECT_TRUE(lt.IsWaiting(101));
  lt.Release(1, 100);
  EXPECT_FALSE(lt.IsWaiting(101));
  EXPECT_TRUE(lt.HoldsAny(101));
}

TEST(LockTableTest, EmptyKeyStateIsCleanedUp) {
  LockTable lt;
  lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr);
  lt.Release(1, 100);
  EXPECT_EQ(lt.num_locked_keys(), 0u);
}

}  // namespace
}  // namespace natto::store
