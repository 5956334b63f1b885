#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "common/flat_map.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/txn_id_set.h"
#include "common/types.h"

namespace natto {
namespace {

// ---------------------------------------------------------------------------
// TxnId packing
// ---------------------------------------------------------------------------

TEST(TxnIdTest, PackUnpackRoundTrips) {
  TxnId id = MakeTxnId(0xdeadbeef, 0x12345678);
  EXPECT_EQ(TxnIdClient(id), 0xdeadbeefu);
  EXPECT_EQ(TxnIdSeq(id), 0x12345678u);
}

TEST(TxnIdTest, OrderFollowsClientThenSeq) {
  EXPECT_LT(MakeTxnId(1, 999), MakeTxnId(2, 0));
  EXPECT_LT(MakeTxnId(1, 1), MakeTxnId(1, 2));
}

TEST(WireBytesTest, SizesScaleWithKeys) {
  EXPECT_EQ(WireKeysBytes(0), kMessageHeaderBytes);
  EXPECT_EQ(WireKeysBytes(3), kMessageHeaderBytes + 3 * kKeyBytes);
  EXPECT_EQ(WireKvBytes(2), kMessageHeaderBytes + 2 * (kKeyBytes + kValueBytes));
}

// ---------------------------------------------------------------------------
// TxnIdSet
// ---------------------------------------------------------------------------

// Random inserts and lookups, checked step by step against
// std::unordered_set while the table doubles. The ids mix three shapes:
// dense runs from 64 clients, the ids on both sides of 64-id chunk edges
// (low and high sequence numbers, and across the client boundary), and
// sparse ids drawn from the whole 64-bit range. Id 0 (client 0, sequence
// 0) is a real transaction id.
TEST(TxnIdSetTest, MatchesUnorderedSetThroughGrowth) {
  Rng rng(16);
  TxnIdSet set;
  std::unordered_set<TxnId> ref;
  EXPECT_FALSE(set.contains(0));
  EXPECT_TRUE(set.insert(0));
  EXPECT_FALSE(set.insert(0));
  EXPECT_TRUE(set.contains(0));
  ref.insert(0);
  auto random_id = [&rng]() -> TxnId {
    const auto client = static_cast<uint32_t>(rng.UniformInt(0, 63));
    switch (rng.UniformInt(0, 3)) {
      case 0:  // dense
        return MakeTxnId(client, static_cast<uint32_t>(rng.UniformInt(0, 399)));
      case 1: {  // next to a chunk edge, near the start of the sequence
        const auto edge = static_cast<uint32_t>(64 * rng.UniformInt(1, 8));
        return MakeTxnId(client, edge - 2 + static_cast<uint32_t>(
                                                rng.UniformInt(0, 3)));
      }
      case 2: {  // next to the edge between two clients' sequences
        const TxnId edge = MakeTxnId(client + 1, 0);
        return edge - 2 + static_cast<TxnId>(rng.UniformInt(0, 3));
      }
      default:  // sparse
        return (static_cast<TxnId>(rng.UniformInt(0, 0x7fffffff)) << 33) ^
               static_cast<TxnId>(rng.UniformInt(0, 0x7fffffff));
    }
  };
  for (int step = 0; step < 40000; ++step) {
    TxnId id = random_id();
    if (rng.UniformInt(0, 2) != 0) {
      ASSERT_EQ(set.insert(id), ref.insert(id).second) << "step " << step;
    } else {
      ASSERT_EQ(set.contains(id), ref.contains(id)) << "step " << step;
    }
  }
  ASSERT_GT(ref.size(), 8192u);  // so the table doubled many times
  for (uint32_t client = 0; client < 65; ++client) {
    for (uint32_t seq = 0; seq < 600; ++seq) {
      TxnId id = MakeTxnId(client, seq);
      ASSERT_EQ(set.contains(id), ref.contains(id)) << client << "/" << seq;
    }
    for (uint32_t back = 1; back <= 3; ++back) {
      TxnId id = MakeTxnId(client, 0) - back;
      ASSERT_EQ(set.contains(id), ref.contains(id)) << client << "-" << back;
    }
  }
  for (TxnId id : ref) ASSERT_TRUE(set.contains(id)) << id;
}

// No id is reserved: the all-ones id and its chunk neighbours are ordinary
// ids, and holding one id of a chunk says nothing of the others.
TEST(TxnIdSetTest, HoldsEveryIdIncludingAllOnes) {
  TxnIdSet set;
  const TxnId all_ones = ~TxnId{0};
  EXPECT_FALSE(set.contains(all_ones));
  EXPECT_TRUE(set.insert(all_ones));
  EXPECT_FALSE(set.insert(all_ones));
  EXPECT_TRUE(set.contains(all_ones));
  EXPECT_FALSE(set.contains(all_ones - 1));
  EXPECT_FALSE(set.contains(all_ones - 63));
  const TxnId near[] = {MakeTxnId(0xffffffffu, 0xfffffffeu),
                        MakeTxnId(0xfffffffeu, 0xffffffffu),
                        MakeTxnId(0x7fffffffu, 0xffffffffu)};
  for (TxnId id : near) EXPECT_TRUE(set.insert(id));
  for (TxnId id : near) EXPECT_TRUE(set.contains(id));
  EXPECT_TRUE(set.contains(all_ones));
  EXPECT_FALSE(set.contains(MakeTxnId(0xffffffffu, 0xffffffc0u)));
}

// ---------------------------------------------------------------------------
// FlatMap
// ---------------------------------------------------------------------------

// Random inserts, updates, erases and lookups over a small key range (so
// probe runs collide and erase shifts members back), checked step by step
// against std::unordered_map while the table grows and shrinks.
TEST(FlatMapTest, MatchesUnorderedMapThroughInsertsAndErases) {
  Rng rng(21);
  FlatMap<int> map;
  std::unordered_map<uint64_t, int> ref;
  for (int step = 0; step < 60000; ++step) {
    // Phases of growth and of shrinking, over dense and strided keys.
    const bool growing = (step / 5000) % 2 == 0;
    const auto key = static_cast<uint64_t>(rng.UniformInt(0, 2999)) *
                     (step % 2 == 0 ? 1 : 64);
    const int op = static_cast<int>(rng.UniformInt(0, 9));
    if (op < (growing ? 5 : 2)) {
      const int value = static_cast<int>(rng.UniformInt(1, 1000000));
      map[key] = value;
      ref[key] = value;
    } else if (op < 7) {
      ASSERT_EQ(map.erase(key), ref.erase(key) == 1) << "step " << step;
    } else {
      const int* got = map.find(key);
      auto want = ref.find(key);
      ASSERT_EQ(got != nullptr, want != ref.end()) << "step " << step;
      if (got != nullptr) {
        ASSERT_EQ(*got, want->second) << "step " << step;
      }
    }
    ASSERT_EQ(map.size(), ref.size()) << "step " << step;
  }
  for (uint64_t key = 0; key < 3000 * 64; ++key) {
    const int* got = map.find(key);
    auto want = ref.find(key);
    ASSERT_EQ(got != nullptr, want != ref.end()) << key;
    if (got != nullptr) {
      ASSERT_EQ(*got, want->second) << key;
    }
  }
}

TEST(FlatMapTest, ValueInitializesOnFirstAccess) {
  FlatMap<uint32_t> map;
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_FALSE(map.erase(7));
  EXPECT_EQ(map[7], 0u);
  map[7] += 3;
  EXPECT_EQ(*map.find(7), 3u);
  EXPECT_EQ(map[~uint64_t{0}], 0u);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_TRUE(map.erase(7));
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_NE(map.find(~uint64_t{0}), nullptr);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng a(42);
  Rng b = a.Fork();
  Rng c = a.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (b.UniformInt(0, 1 << 30) == c.UniformInt(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(1);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(1);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(2);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(10.0);
  EXPECT_NEAR(sum / n, 0.1, 0.005);  // mean = 1/rate
}

TEST(RngTest, ParetoMeanMatchesFormula) {
  Rng rng(3);
  double xm = 2.0, alpha = 3.0;
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Pareto(xm, alpha);
  EXPECT_NEAR(sum / n, alpha * xm / (alpha - 1), 0.05);
}

// ---------------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------------

int CountingHelper(int* counter) {
  ++*counter;
  return 1;
}

TEST(LoggingTest, DcheckConditionNotEvaluatedInRelease) {
  int cond_evals = 0;
  // A passing condition with a counted side effect. In debug builds the
  // condition must run (and pass); in NDEBUG builds NATTO_DCHECK is a true
  // no-op and must not evaluate it at all.
  NATTO_DCHECK(CountingHelper(&cond_evals) == 1);
#ifdef NDEBUG
  EXPECT_EQ(cond_evals, 0);
#else
  EXPECT_EQ(cond_evals, 1);
#endif
}

TEST(LoggingTest, DcheckStreamedArgsNeverEvaluated) {
  int stream_evals = 0;
  // Streamed operands only run when a check FAILS (to build the message).
  // On a passing debug check they are skipped; in NDEBUG the whole
  // statement is dead code. Either way: zero evaluations.
  NATTO_DCHECK(1 + 1 == 2) << "unexpected sum " << CountingHelper(&stream_evals);
  EXPECT_EQ(stream_evals, 0);
}

TEST(LoggingTest, DcheckCompilesAsSingleStatementInIfElse) {
  int branch = 0;
  // Regression guard: the macro must behave as one statement so un-braced
  // if/else around it keeps its meaning.
  if (branch == 0)
    NATTO_DCHECK(branch == 0) << "streamed " << branch;
  else
    branch = 2;
  EXPECT_EQ(branch, 0);
}

}  // namespace
}  // namespace natto
