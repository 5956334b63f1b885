#include <gtest/gtest.h>

#include <unordered_set>

#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/txn_id_set.h"
#include "common/types.h"

namespace natto {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Aborted("conflict on key 7");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsAborted());
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_EQ(s.ToString(), "Aborted: conflict on key 7");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kAborted,
        StatusCode::kUnavailable, StatusCode::kInternal,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

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

// Random inserts and lookups of ids from 64 clients, checked step by step
// against std::unordered_set while the table doubles from 16 slots to
// 32768. Id 0 (client 0, sequence 0) is a real transaction id.
TEST(TxnIdSetTest, MatchesUnorderedSetThroughGrowth) {
  Rng rng(16);
  TxnIdSet set;
  std::unordered_set<TxnId> ref;
  EXPECT_FALSE(set.contains(0));
  EXPECT_TRUE(set.insert(0));
  EXPECT_FALSE(set.insert(0));
  EXPECT_TRUE(set.contains(0));
  ref.insert(0);
  auto random_id = [&rng]() {
    return MakeTxnId(static_cast<uint32_t>(rng.UniformInt(0, 63)),
                     static_cast<uint32_t>(rng.UniformInt(0, 399)));
  };
  for (int step = 0; step < 30000; ++step) {
    TxnId id = random_id();
    if (rng.UniformInt(0, 2) != 0) {
      ASSERT_EQ(set.insert(id), ref.insert(id).second) << "step " << step;
    } else {
      ASSERT_EQ(set.contains(id), ref.contains(id)) << "step " << step;
    }
  }
  ASSERT_GT(ref.size(), 8192u);  // so the table reached 32768 slots
  for (uint32_t client = 0; client < 65; ++client) {
    for (uint32_t seq = 0; seq < 401; ++seq) {
      TxnId id = MakeTxnId(client, seq);
      ASSERT_EQ(set.contains(id), ref.contains(id)) << client << "/" << seq;
    }
  }
}

// Ids next to the empty sentinel are ordinary ids.
TEST(TxnIdSetTest, HoldsIdsBesideTheSentinel) {
  TxnIdSet set;
  const TxnId near[] = {MakeTxnId(0xffffffffu, 0xfffffffeu),
                        MakeTxnId(0xfffffffeu, 0xffffffffu),
                        MakeTxnId(0x7fffffffu, 0xffffffffu)};
  for (TxnId id : near) EXPECT_TRUE(set.insert(id));
  for (TxnId id : near) EXPECT_TRUE(set.contains(id));
  EXPECT_FALSE(set.contains(~TxnId{0}));
}

#ifndef NDEBUG
TEST(TxnIdSetDeathTest, RejectsTheEmptySentinel) {
  TxnIdSet set;
  EXPECT_DEATH(set.insert(~TxnId{0}), "sentinel");
}
#endif

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
