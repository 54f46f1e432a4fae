#include "storage/write_history.h"

#include <gtest/gtest.h>

namespace esr {
namespace {

Timestamp Ts(int64_t t) { return Timestamp{t, 0}; }

TEST(WriteHistoryTest, EmptyHasNoProperValue) {
  WriteHistory h(4);
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.ProperValueBefore(Ts(100)).has_value());
  EXPECT_EQ(h.NewestTimestamp(), Timestamp::Min());
}

TEST(WriteHistoryTest, ProperValueIsNewestOlderWrite) {
  WriteHistory h(8);
  h.Record(Ts(10), 100);
  h.Record(Ts(20), 200);
  h.Record(Ts(30), 300);
  // A query with ts 25 should see the value written at ts 20 as proper.
  EXPECT_EQ(h.ProperValueBefore(Ts(25)).value(), 200);
  EXPECT_EQ(h.ProperValueBefore(Ts(35)).value(), 300);
  EXPECT_EQ(h.ProperValueBefore(Ts(15)).value(), 100);
}

TEST(WriteHistoryTest, ExactTimestampIsNotStrictlyOlder) {
  WriteHistory h(4);
  h.Record(Ts(10), 100);
  h.Record(Ts(20), 200);
  // "last write with a timestamp lesser than this read": strict.
  EXPECT_EQ(h.ProperValueBefore(Ts(20)).value(), 100);
}

TEST(WriteHistoryTest, QueryOlderThanEverythingRetainedMisses) {
  WriteHistory h(2);
  h.Record(Ts(10), 100);
  h.Record(Ts(20), 200);
  h.Record(Ts(30), 300);  // evicts ts=10
  EXPECT_FALSE(h.ProperValueBefore(Ts(15)).has_value());
  EXPECT_EQ(h.ProperValueBefore(Ts(25)).value(), 200);
}

TEST(WriteHistoryTest, DepthBoundsRetention) {
  WriteHistory h(20);  // the paper's empirical depth
  for (int i = 1; i <= 50; ++i) h.Record(Ts(i * 10), i);
  EXPECT_EQ(h.size(), 20u);
  // Oldest retained write is #31 (50 - 20 + 1).
  EXPECT_EQ(h.entries().front().value, 31);
  EXPECT_FALSE(h.ProperValueBefore(Ts(305)).has_value());
  EXPECT_EQ(h.ProperValueBefore(Ts(315)).value(), 31);
}

TEST(WriteHistoryTest, OutOfOrderInsertKeptSorted) {
  WriteHistory h(8);
  h.Record(Ts(10), 100);
  h.Record(Ts(30), 300);
  h.Record(Ts(20), 200);  // strict TO commits nearly in order, not exactly
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h.entries()[0].ts, Ts(10));
  EXPECT_EQ(h.entries()[1].ts, Ts(20));
  EXPECT_EQ(h.entries()[2].ts, Ts(30));
  EXPECT_EQ(h.ProperValueBefore(Ts(25)).value(), 200);
}

TEST(WriteHistoryTest, OutOfOrderEvictionDropsOldest) {
  WriteHistory h(2);
  h.Record(Ts(10), 100);
  h.Record(Ts(30), 300);
  h.Record(Ts(20), 200);  // sorted insert then eviction of ts=10
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h.entries().front().ts, Ts(20));
}

TEST(WriteHistoryTest, DepthOneKeepsOnlyNewest) {
  WriteHistory h(1);
  h.Record(Ts(10), 100);
  h.Record(Ts(20), 200);
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(h.ProperValueBefore(Ts(100)).value(), 200);
  EXPECT_FALSE(h.ProperValueBefore(Ts(15)).has_value());
}

TEST(WriteHistoryTest, NewestTimestampTracksTail) {
  WriteHistory h(4);
  h.Record(Ts(10), 1);
  EXPECT_EQ(h.NewestTimestamp(), Ts(10));
  h.Record(Ts(50), 2);
  EXPECT_EQ(h.NewestTimestamp(), Ts(50));
  h.Record(Ts(30), 3);  // older insert does not change the newest
  EXPECT_EQ(h.NewestTimestamp(), Ts(50));
}

TEST(WriteHistoryTest, ExactlyOldestRetainedTimestampMisses) {
  // A query at exactly the oldest retained timestamp needs the write
  // *before* it (strictly older), and a full ring has already evicted
  // that one — the lookup must miss, not return the boundary write.
  WriteHistory h(3);
  h.Record(Ts(10), 100);
  h.Record(Ts(20), 200);
  h.Record(Ts(30), 300);
  h.Record(Ts(40), 400);  // evicts ts=10; oldest retained is ts=20
  ASSERT_EQ(h.OldestTimestamp(), Ts(20));
  EXPECT_FALSE(h.ProperValueBefore(Ts(20)).has_value());
  // One tick past the boundary, the oldest retained write is proper.
  EXPECT_EQ(h.ProperValueBefore(Ts(21)).value(), 200);
}

TEST(WriteHistoryTest, ExactlyOldestTimestampHitsWhileRingHasRoom) {
  // Same boundary query, but the ring never evicted: the write before
  // the oldest retained one was never recorded at all, so the miss is
  // genuine only after eviction. With ts=10 still present, a query at
  // its timestamp misses because nothing is older — not because the ring
  // forgot.
  WriteHistory h(8);
  h.Record(Ts(10), 100);
  h.Record(Ts(20), 200);
  EXPECT_FALSE(h.ProperValueBefore(Ts(10)).has_value());
  EXPECT_EQ(h.ProperValueBefore(Ts(20)).value(), 100);
}

TEST(WriteHistoryTest, ArenaBackedDepthOneWrapsInPlace) {
  // Depth-1 rings from one pool block: every Record overwrites the single
  // slot (start_ never moves past it), and the neighboring ring, adjacent
  // in the block, must stay untouched.
  HistoryPool pool(/*depth=*/1, /*rings_per_block=*/2);
  WriteHistory h0(&pool);
  WriteHistory h1(&pool);
  h1.Record(Ts(5), 555);
  for (int i = 1; i <= 10; ++i) h0.Record(Ts(i * 10), i);
  EXPECT_EQ(h0.size(), 1u);
  EXPECT_EQ(h0.NewestTimestamp(), Ts(100));
  EXPECT_EQ(h0.OldestTimestamp(), Ts(100));
  EXPECT_EQ(h0.ProperValueBefore(Ts(1000)).value(), 10);
  // Stale write older than the sole retained entry is dropped outright.
  h0.Record(Ts(15), 99);
  EXPECT_EQ(h0.ProperValueBefore(Ts(1000)).value(), 10);
  // Neighbor ring is unperturbed by object 0's churn.
  EXPECT_EQ(h1.ProperValueBefore(Ts(6)).value(), 555);
  ASSERT_EQ(h1.entries().size(), 1u);
  EXPECT_EQ(h1.entries()[0].value, 555);
  EXPECT_EQ(pool.rings_in_use(), 2u);
}

TEST(WriteHistoryTest, ArenaBackedRingWrapsPastPhysicalEnd) {
  // Enough records to cycle start_ around the physical ring several
  // times; logical order and lookups must be oblivious to the wrap.
  HistoryPool pool(/*depth=*/4, /*rings_per_block=*/1);
  WriteHistory h(&pool);
  for (int i = 1; i <= 11; ++i) h.Record(Ts(i * 10), i);
  ASSERT_EQ(h.size(), 4u);
  const auto entries = h.entries();
  for (size_t i = 0; i + 1 < entries.size(); ++i) {
    EXPECT_LT(entries[i].ts, entries[i + 1].ts);
  }
  EXPECT_EQ(entries.front().value, 8);   // writes 8..11 retained
  EXPECT_EQ(entries.back().value, 11);
  EXPECT_EQ(h.ProperValueBefore(Ts(95)).value(), 9);
  EXPECT_FALSE(h.ProperValueBefore(Ts(80)).has_value());
}

TEST(WriteHistoryTest, MoveHandsTheRingOver) {
  WriteHistory from(3);
  EXPECT_TRUE(from.empty());  // no ring before the first Record
  for (int i = 1; i <= 4; ++i) from.Record(Ts(i * 10), i);
  WriteHistory to(std::move(from));
  EXPECT_TRUE(from.empty());  // NOLINT(bugprone-use-after-move)
  ASSERT_EQ(to.size(), 3u);
  EXPECT_EQ(to.ProperValueBefore(Ts(35)).value(), 3);
  // The moved-from history takes a fresh ring of its own on reuse.
  from.Record(Ts(5), 50);
  EXPECT_EQ(from.ProperValueBefore(Ts(6)).value(), 50);
  EXPECT_EQ(to.entries().front().value, 2);
}

// Parameterized sweep: proper-value lookup is correct at every depth.
class WriteHistoryDepthTest : public ::testing::TestWithParam<size_t> {};

TEST_P(WriteHistoryDepthTest, LookupMatchesBruteForce) {
  const size_t depth = GetParam();
  WriteHistory h(depth);
  constexpr int kWrites = 40;
  for (int i = 1; i <= kWrites; ++i) h.Record(Ts(i * 10), i);
  const int oldest_retained = kWrites - static_cast<int>(h.size()) + 1;
  for (int q = 0; q <= kWrites + 1; ++q) {
    const auto got = h.ProperValueBefore(Ts(q * 10 + 5));
    // Brute force: newest write with ts < query is write #q (value q).
    if (q >= oldest_retained) {
      ASSERT_TRUE(got.has_value()) << "depth=" << depth << " q=" << q;
      EXPECT_EQ(*got, std::min(q, kWrites));
    } else {
      EXPECT_FALSE(got.has_value()) << "depth=" << depth << " q=" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, WriteHistoryDepthTest,
                         ::testing::Values(1, 2, 5, 20, 64));

}  // namespace
}  // namespace esr
