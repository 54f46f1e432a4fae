// Write histories whose ring is allocated at the object's first committed
// write, checked against a copy of the eagerly seeded fixed ring they
// replaced, plus the store-level accounting of rings in use.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/object_store.h"

namespace esr {
namespace {

static_assert(sizeof(ObjectRecord) <= 160,
              "ObjectRecord grew past 160 bytes; the history header must "
              "stay packed beside the id");

TEST(ObjectRecordLayoutTest, RecordFitsIn160Bytes) {
  EXPECT_LE(sizeof(ObjectRecord), 160u);
}

Timestamp Ts(int64_t t) { return Timestamp{t, 0}; }

/// The fixed ring every record carried before rings were allocated on
/// first commit: `depth` slots allocated up front, seeded at construction
/// with the load value at Timestamp::Min().
class ReferenceRing {
 public:
  ReferenceRing(size_t depth, Value load) : slots_(depth) {
    Record(Timestamp::Min(), load);
  }

  void Record(Timestamp ts, Value value) {
    const size_t depth = slots_.size();
    if (count_ == 0 || At(count_ - 1).ts < ts) {
      if (count_ == depth) {
        slots_[start_] = {ts, value};
        start_ = (start_ + 1) % depth;
      } else {
        At(count_) = {ts, value};
        ++count_;
      }
      return;
    }
    size_t pos = count_;
    while (pos > 0 && ts < At(pos - 1).ts) --pos;
    if (count_ < depth) {
      for (size_t i = count_; i > pos; --i) At(i) = At(i - 1);
      At(pos) = {ts, value};
      ++count_;
      return;
    }
    if (pos == 0) return;
    for (size_t i = 0; i + 1 < pos; ++i) At(i) = At(i + 1);
    At(pos - 1) = {ts, value};
  }

  std::optional<Value> ProperValueBefore(Timestamp before) const {
    for (size_t i = count_; i > 0; --i) {
      if (At(i - 1).ts < before) return At(i - 1).value;
    }
    return std::nullopt;
  }

  std::vector<WriteHistory::Entry> entries() const {
    std::vector<WriteHistory::Entry> out;
    for (size_t i = 0; i < count_; ++i) out.push_back(At(i));
    return out;
  }

 private:
  WriteHistory::Entry& At(size_t i) {
    return slots_[(start_ + i) % slots_.size()];
  }
  const WriteHistory::Entry& At(size_t i) const {
    return slots_[(start_ + i) % slots_.size()];
  }

  std::vector<WriteHistory::Entry> slots_;
  size_t start_ = 0;
  size_t count_ = 0;
};

constexpr int64_t kMaxMicros = 120;

// Probes every timestamp a write can carry, both neighbors of each, and
// the extremes.
void ExpectSameAnswers(const ObjectRecord& rec, const ReferenceRing& ref,
                       Value load, const std::string& where) {
  std::vector<Timestamp> probes = {Timestamp::Min(), Timestamp::Max(),
                                   Timestamp{INT64_MIN, 1}};
  for (int64_t t = -1; t <= kMaxMicros + 1; ++t) {
    probes.push_back(Timestamp{t, 0});
    probes.push_back(Timestamp{t, 1});
  }
  for (const Timestamp& probe : probes) {
    EXPECT_EQ(rec.ProperValueFor(probe), ref.ProperValueBefore(probe))
        << where << " probe " << probe.ToString();
  }
  std::vector<WriteHistory::Entry> got = rec.history().entries();
  // Until the first commit the load value lives in the record, not a slot.
  if (got.empty()) got.push_back({Timestamp::Min(), load});
  const std::vector<WriteHistory::Entry> want = ref.entries();
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].ts, want[i].ts) << where << " entry " << i;
    EXPECT_EQ(got[i].value, want[i].value) << where << " entry " << i;
  }
}

class LazyHistoryDifferentialTest : public ::testing::TestWithParam<size_t> {
};

// Drives a store-backed and a standalone record through the same random
// commits and aborts — in and out of timestamp order, with aborts before
// the first commit — and compares both with the reference after every
// step and while each write is still pending.
TEST_P(LazyHistoryDifferentialTest, MatchesEagerlySeededFixedRing) {
  const size_t depth = GetParam();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 7919 + depth);
    ObjectStoreOptions opt;
    opt.num_objects = 3;
    opt.history_depth = depth;
    opt.seed = seed;
    ObjectStore store(opt);
    ObjectRecord& pooled = store.Get(1);
    const Value load = pooled.value();
    ObjectRecord standalone(1, load, depth);
    ReferenceRing ref(depth, load);

    const int aborts_first = static_cast<int>(rng.UniformInt(0, 3));
    int64_t newest = 0;
    for (int step = 0; step < 150; ++step) {
      const std::string where = "depth " + std::to_string(depth) + " seed " +
                                std::to_string(seed) + " step " +
                                std::to_string(step);
      const TxnId txn = static_cast<TxnId>(step + 1);
      Timestamp ts;
      if (rng.Bernoulli(0.05)) {
        ts = Timestamp::Min();  // a load-style system write
      } else if (newest < kMaxMicros && rng.Bernoulli(0.6)) {
        ts = Ts(++newest);
      } else {
        ts = Timestamp{rng.UniformInt(0, kMaxMicros),
                       static_cast<SiteId>(rng.UniformInt(0, 1))};
      }
      const Value value = rng.UniformInt(1000, 9999);
      const bool overwrite = rng.Bernoulli(0.2);  // same-txn blind rewrite
      for (ObjectRecord* rec : {&pooled, &standalone}) {
        rec->ApplyWrite(txn, ts, value);
        if (overwrite) rec->ApplyWrite(txn, ts, value + 1);
      }
      ExpectSameAnswers(pooled, ref, load, where + " pending");
      ExpectSameAnswers(standalone, ref, load, where + " pending");
      const bool abort = step < aborts_first || rng.Bernoulli(0.25);
      for (ObjectRecord* rec : {&pooled, &standalone}) {
        if (abort) {
          rec->AbortWrite(txn);
        } else {
          rec->CommitWrite(txn);
        }
      }
      if (!abort) ref.Record(ts, pooled.value());
      ExpectSameAnswers(pooled, ref, load, where);
      ExpectSameAnswers(standalone, ref, load, where);
      ASSERT_EQ(store.history_rings(), pooled.history().empty() ? 0u : 1u);
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, LazyHistoryDifferentialTest,
                         ::testing::Values(1, 2, 20));

ObjectStoreOptions StoreOf(size_t n) {
  ObjectStoreOptions opt;
  opt.num_objects = n;
  opt.seed = 3;
  return opt;
}

TEST(LazyHistoryStoreTest, NeverWrittenObjectHasNoRingAndAnswersLoadValue) {
  ObjectStore store(StoreOf(100));
  ObjectRecord& rec = store.Get(42);
  const Value load = rec.value();
  const std::vector<Timestamp> probes = {Timestamp{INT64_MIN, 1}, Ts(-5),
                                         Ts(0), Ts(1), Ts(1'000'000'000),
                                         Timestamp::Max()};
  auto expect_load = [&](const char* phase) {
    EXPECT_TRUE(rec.history().empty()) << phase;
    EXPECT_EQ(store.history_rings(), 0u) << phase;
    for (const Timestamp& probe : probes) {
      EXPECT_EQ(rec.ProperValueFor(probe), load)
          << phase << " probe " << probe.ToString();
    }
    // Nothing is strictly older than the load value's Timestamp::Min().
    EXPECT_FALSE(rec.ProperValueFor(Timestamp::Min()).has_value()) << phase;
  };
  expect_load("never written");

  // An uncommitted writer changes the present value but not the proper
  // value, and takes no ring.
  rec.ApplyWrite(/*txn=*/7, Ts(50), load + 111);
  EXPECT_EQ(rec.value(), load + 111);
  expect_load("writer pending");
  rec.AbortWrite(/*txn=*/7);
  expect_load("after abort");

  // Reads register without taking a ring either.
  rec.NoteQueryRead(Ts(60));
  EXPECT_TRUE(rec.RegisterQueryReader(/*txn=*/8, Ts(60), load));
  expect_load("after reads");
}

TEST(LazyHistoryStoreTest, RingsInUseEqualDistinctObjectsWithACommit) {
  // 1000 objects span several pool blocks of 256 rings.
  ObjectStore store(StoreOf(1000));
  Rng rng(11);
  std::set<ObjectId> written;
  for (int step = 0; step < 3000; ++step) {
    const ObjectId id = static_cast<ObjectId>(rng.UniformInt(0, 999));
    const TxnId txn = static_cast<TxnId>(step + 1);
    ObjectRecord& rec = store.Get(id);
    rec.ApplyWrite(txn, Ts(step), rng.UniformInt(1000, 9999));
    if (rng.Bernoulli(0.3)) {
      rec.AbortWrite(txn);
    } else {
      rec.CommitWrite(txn);
      written.insert(id);
    }
    ASSERT_EQ(store.history_rings(), written.size()) << "step " << step;
  }
  for (ObjectId id = 0; id < 1000; ++id) {
    EXPECT_EQ(store.Get(id).history().empty(), written.count(id) == 0)
        << "object " << id;
  }
}

TEST(LazyHistoryStoreTest, PooledRingsDoNotOverlap) {
  // Fill every ring of a multi-block pool to capacity with values unique
  // to its object; any two rings sharing a slot would corrupt one.
  ObjectStoreOptions opt = StoreOf(600);
  opt.history_depth = 3;
  ObjectStore store(opt);
  for (int64_t round = 1; round <= 4; ++round) {
    for (ObjectId id = 0; id < 600; ++id) {
      const TxnId txn = static_cast<TxnId>(round * 1000 + id);
      store.Get(id).ApplyWrite(txn, Ts(round), id * 10 + round);
      store.Get(id).CommitWrite(txn);
    }
  }
  EXPECT_EQ(store.history_rings(), 600u);
  for (ObjectId id = 0; id < 600; ++id) {
    const auto entries = store.Get(id).history().entries();
    ASSERT_EQ(entries.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(entries[i].value, static_cast<Value>(id * 10 + i + 2));
    }
  }
}

TEST(LazyHistoryStoreTest, RejectsDepthPastTheHeaderWidth) {
  ObjectStoreOptions opt = StoreOf(10);
  opt.history_depth = WriteHistory::kMaxDepth + 1;
  EXPECT_DEATH({ ObjectStore store(opt); }, "history depth");
}

}  // namespace
}  // namespace esr
