// Differential test of the two TO-ESR engines: the single-latch
// TransactionManager and the ShardedEngine (1 and 4 shards) are driven
// single-threaded through one scripted schedule that reaches every Fig. 3
// branch and every bound-check outcome. Both must return field-identical
// OpResults, leave identical engine counters, and end with identical
// committed object values. A second schedule submits multi-op batches
// through ShardedEngine::ExecuteBatch and compares them with the TO
// engine's one-op-at-a-time run of the same ops.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/sharded/sharded_engine.h"
#include "hierarchy/group_schema.h"
#include "txn/transaction_manager.h"

namespace esr {
namespace {

constexpr size_t kObjects = 16;
/// Shallow enough that four commits push the load-time value out.
constexpr size_t kHistoryDepth = 4;
/// Objects with tight object-level limits.
constexpr ObjectId kTightOil = 5;
constexpr ObjectId kTightOel = 6;
constexpr Inconsistency kTightLimit = 10.0;
/// Objects [kHotFirst, kHotFirst + 4) form the group "hot".
constexpr ObjectId kHotFirst = 8;

ObjectStoreOptions StoreOptions() {
  ObjectStoreOptions opt;
  opt.num_objects = kObjects;
  opt.history_depth = kHistoryDepth;
  opt.seed = 11;
  return opt;
}

/// One engine under test plus the registry its counters live in. Each
/// sharded shard seeds its slice differently, so `object` gives the test
/// direct access to set values and limits identically on every engine.
struct Subject {
  std::unique_ptr<MetricRegistry> metrics = std::make_unique<MetricRegistry>();
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<TransactionEngine> engine;
  std::function<ObjectRecord&(ObjectId)> object;
  /// Set on sharded subjects, which run Script::Batch as one ExecuteBatch.
  ShardedEngine* sharded = nullptr;
};

Subject MakeToEngine(const GroupSchema* schema) {
  Subject s;
  s.store = std::make_unique<ObjectStore>(StoreOptions());
  s.engine = std::make_unique<TransactionManager>(s.store.get(), schema,
                                                  s.metrics.get());
  ObjectStore* store = s.store.get();
  s.object = [store](ObjectId id) -> ObjectRecord& { return store->Get(id); };
  return s;
}

Subject MakeShardedEngine(const GroupSchema* schema, size_t shards) {
  Subject s;
  ShardedEngineOptions opt;
  opt.num_shards = shards;
  auto engine = std::make_unique<ShardedEngine>(opt, StoreOptions(), schema,
                                                s.metrics.get());
  ShardedEngine* raw = engine.get();
  s.sharded = raw;
  s.engine = std::move(engine);
  s.object = [raw](ObjectId id) -> ObjectRecord& { return raw->ObjectAt(id); };
  return s;
}

/// Object i holds 1000 * (i + 1), committed before every timestamp; the
/// object-level limits are unbounded except on the two tight objects.
void LoadObjects(Subject& s) {
  for (ObjectId id = 0; id < kObjects; ++id) {
    ObjectRecord& rec = s.object(id);
    rec.ApplyWrite(UINT64_MAX, Timestamp::Min(),
                   static_cast<Value>(1000 * (id + 1)));
    rec.CommitWrite(UINT64_MAX);
    rec.set_oil(id == kTightOil ? kTightLimit : kUnbounded);
    rec.set_oel(id == kTightOel ? kTightLimit : kUnbounded);
  }
}

/// Drives one engine by transaction name and logs every verdict.
class Script {
 public:
  struct Entry {
    std::string what;
    OpResult result;
    bool active_after = false;
  };

  explicit Script(Subject& subject) : subject_(subject) {}

  void Begin(const std::string& name, TxnType type, int64_t ts,
             const BoundSpec& bounds) {
    ids_[name] = engine().Begin(type, Timestamp{ts, 0}, bounds);
  }

  OpResult Read(const std::string& name, ObjectId object) {
    const TxnId id = ids_.at(name);
    return Log("read " + name + " x" + std::to_string(object), id,
               engine().Read(id, object));
  }

  OpResult Write(const std::string& name, ObjectId object, Value value) {
    const TxnId id = ids_.at(name);
    return Log("write " + name + " x" + std::to_string(object), id,
               engine().Write(id, object, value));
  }

  /// One op of a batch.
  struct Op {
    std::string txn;
    ObjectId object;
    bool is_write;
    Value value;
  };
  static Op R(const std::string& txn, ObjectId object) {
    return Op{txn, object, false, 0};
  }
  static Op W(const std::string& txn, ObjectId object, Value value) {
    return Op{txn, object, true, value};
  }

  /// Runs `ops` as one ExecuteBatch on a sharded subject and one
  /// Read/Write at a time, in order, on the TO engine; returns the results
  /// in request order. Activity is logged after the whole batch.
  std::vector<OpResult> Batch(const std::vector<Op>& ops) {
    std::vector<OpResult> results;
    if (subject_.sharded != nullptr) {
      OpBatch batch;
      for (const Op& op : ops) {
        batch.reqs.push_back(
            OpRequest{ids_.at(op.txn), op.object, op.is_write, op.value});
      }
      subject_.sharded->ExecuteBatch(batch);
      results = batch.results;
    } else {
      for (const Op& op : ops) {
        const TxnId id = ids_.at(op.txn);
        results.push_back(op.is_write ? engine().Write(id, op.object, op.value)
                                      : engine().Read(id, op.object));
      }
    }
    EXPECT_EQ(results.size(), ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      Log(std::string(ops[i].is_write ? "batched write " : "batched read ") +
              ops[i].txn + " x" + std::to_string(ops[i].object),
          ids_.at(ops[i].txn), results[i]);
    }
    return results;
  }

  void Commit(const std::string& name) {
    EXPECT_TRUE(engine().Commit(ids_.at(name)).ok()) << "commit " << name;
  }

  void Abort(const std::string& name) {
    EXPECT_TRUE(engine().Abort(ids_.at(name)).ok()) << "abort " << name;
  }

  /// A complete single-write update ET committed at `ts`.
  void CommitWrite(const std::string& name, int64_t ts, ObjectId object,
                   Value value) {
    Begin(name, TxnType::kUpdate, ts, BoundSpec::TransactionOnly(0));
    EXPECT_TRUE(Write(name, object, value).ok()) << name;
    Commit(name);
  }

  TxnId id(const std::string& name) const { return ids_.at(name); }
  const std::vector<Entry>& log() const { return log_; }

 private:
  TransactionEngine& engine() { return *subject_.engine; }

  OpResult Log(std::string what, TxnId id, const OpResult& r) {
    log_.push_back(Entry{std::move(what), r, engine().IsActive(id)});
    return r;
  }

  Subject& subject_;
  std::map<std::string, TxnId> ids_;
  std::vector<Entry> log_;
};

void ExpectAbort(const OpResult& r, AbortReason reason) {
  EXPECT_EQ(r.kind, OpResult::Kind::kAbort);
  EXPECT_EQ(r.abort_reason, reason);
}

void ExpectOk(const OpResult& r, Value value, Inconsistency d, bool relaxed) {
  EXPECT_EQ(r.kind, OpResult::Kind::kOk);
  EXPECT_EQ(r.value, value);
  EXPECT_EQ(r.inconsistency, d);
  EXPECT_EQ(r.relaxed, relaxed);
}

/// The schedule. Every expectation pins the Fig. 3 branch a step must
/// take, so coverage holds on each engine independently of the
/// cross-engine comparison.
void RunSchedule(Script& s, GroupId hot) {
  const BoundSpec sr = BoundSpec::TransactionOnly(0);
  const BoundSpec til = BoundSpec::TransactionOnly(5000);

  // Consistent read and write; read and write wait on an uncommitted
  // writer, then proceed once it commits.
  s.Begin("q1", TxnType::kQuery, 100, til);
  ExpectOk(s.Read("q1", 0), 1000, 0.0, false);
  s.Begin("u1", TxnType::kUpdate, 110, sr);
  ExpectOk(s.Write("u1", 1, 2500), 2500, 0.0, false);
  s.Begin("u2", TxnType::kUpdate, 120, sr);
  const OpResult read_wait = s.Read("u2", 1);
  EXPECT_EQ(read_wait.kind, OpResult::Kind::kWait);
  EXPECT_EQ(read_wait.blocker, s.id("u1"));
  const OpResult write_wait = s.Write("u2", 1, 2600);
  EXPECT_EQ(write_wait.kind, OpResult::Kind::kWait);
  EXPECT_EQ(write_wait.blocker, s.id("u1"));
  s.Commit("u1");
  ExpectOk(s.Read("u2", 1), 2500, 0.0, false);
  ExpectOk(s.Write("u2", 2, 3300), 3300, 0.0, false);
  s.Commit("u2");

  // Late read; late write against an update read; late write against a
  // newer committed write.
  s.Begin("u3", TxnType::kUpdate, 105, sr);
  ExpectAbort(s.Read("u3", 1), AbortReason::kLateRead);
  s.Begin("u4", TxnType::kUpdate, 115, sr);
  ExpectAbort(s.Write("u4", 1, 1), AbortReason::kLateWrite);
  s.Begin("u5", TxnType::kUpdate, 108, sr);
  ExpectAbort(s.Write("u5", 2, 1), AbortReason::kLateWrite);

  // Relaxed late read (case 1), its repeat under the min/max rule, and a
  // relaxed read of uncommitted data (case 2); the writer then aborts.
  s.Begin("q2", TxnType::kQuery, 50, til);
  ExpectOk(s.Read("q2", 1), 2500, 500.0, true);
  ExpectOk(s.Read("q2", 1), 2500, 500.0, true);
  s.Begin("u6", TxnType::kUpdate, 130, sr);
  ExpectOk(s.Write("u6", 3, 4100), 4100, 0.0, false);
  ExpectOk(s.Read("q2", 3), 4100, 100.0, true);
  s.Abort("u6");
  ExpectOk(s.Read("q2", 3), 4000, 0.0, false);

  // Relaxed late write against a newer query reader (case 3).
  s.Begin("q3", TxnType::kQuery, 200, til);
  ExpectOk(s.Read("q3", 4), 5000, 0.0, false);
  s.Begin("u7", TxnType::kUpdate, 150, BoundSpec::TransactionOnly(1000));
  ExpectOk(s.Write("u7", 4, 5300), 5300, 300.0, true);
  s.Commit("u7");
  s.Commit("q3");

  // The bounded history no longer reaches back to the query.
  for (int i = 0; i < static_cast<int>(kHistoryDepth); ++i) {
    s.CommitWrite("h" + std::to_string(i), 300 + i, 7, 8000 + i);
  }
  s.Begin("q4", TxnType::kQuery, 250, til);
  ExpectAbort(s.Read("q4", 7), AbortReason::kHistoryExhausted);

  // Object-level rejects: OIL on a relaxed read, OEL on a relaxed write.
  s.CommitWrite("w5", 400, kTightOil, 6600);
  s.Begin("q5", TxnType::kQuery, 350, til);
  ExpectAbort(s.Read("q5", kTightOil), AbortReason::kObjectBound);
  s.Begin("q6", TxnType::kQuery, 500, til);
  ExpectOk(s.Read("q6", kTightOel), 7000, 0.0, false);
  s.Begin("u8", TxnType::kUpdate, 450, til);
  ExpectAbort(s.Write("u8", kTightOel, 7700), AbortReason::kObjectBound);
  s.Commit("q6");

  // Group- and transaction-level rejects, on the import and the export
  // side.
  BoundSpec hot_limited = BoundSpec::TransactionOnly(5000);
  hot_limited.SetLimit(hot, 100);
  s.CommitWrite("w8", 600, kHotFirst, 9900);
  s.Begin("q7", TxnType::kQuery, 550, hot_limited);
  ExpectAbort(s.Read("q7", kHotFirst), AbortReason::kGroupBound);
  s.Begin("q8", TxnType::kQuery, 550, BoundSpec::TransactionOnly(100));
  ExpectAbort(s.Read("q8", kHotFirst), AbortReason::kTransactionBound);
  s.Begin("q9", TxnType::kQuery, 700, til);
  ExpectOk(s.Read("q9", kHotFirst + 1), 10000, 0.0, false);
  s.Begin("u9", TxnType::kUpdate, 650, BoundSpec::TransactionOnly(100));
  ExpectAbort(s.Write("u9", kHotFirst + 1, 10500),
              AbortReason::kTransactionBound);
  s.Begin("u10", TxnType::kUpdate, 660, hot_limited);
  ExpectAbort(s.Write("u10", kHotFirst + 1, 10500), AbortReason::kGroupBound);
  s.Commit("q9");

  s.Commit("q2");
  s.Commit("q1");
}

/// The batch schedule. Every batch holds one op per transaction on
/// distinct objects, so its verdicts do not depend on the order the ops
/// run in, and at 4 shards every batch touches every shard.
void RunBatchSchedule(Script& s) {
  const BoundSpec sr = BoundSpec::TransactionOnly(0);
  const BoundSpec til = BoundSpec::TransactionOnly(5000);

  s.Begin("u1", TxnType::kUpdate, 100, sr);
  s.Begin("u2", TxnType::kUpdate, 110, sr);
  s.Begin("q1", TxnType::kQuery, 120, til);
  s.Begin("u3", TxnType::kUpdate, 130, sr);
  std::vector<OpResult> r = s.Batch({Script::W("u1", 0, 1500),
                                     Script::W("u2", 1, 2500), Script::R("q1", 2),
                                     Script::W("u3", 3, 4400)});
  ExpectOk(r[0], 1500, 0.0, false);
  ExpectOk(r[1], 2500, 0.0, false);
  ExpectOk(r[2], 3000, 0.0, false);
  ExpectOk(r[3], 4400, 0.0, false);
  s.Commit("u3");

  // u2 wrote x1 and aborts mid-batch on a late write against q1's read;
  // u4 waits on u1's uncommitted write; q2 reads late, relaxed (case 1).
  s.Begin("u4", TxnType::kUpdate, 140, sr);
  s.Begin("q2", TxnType::kQuery, 50, til);
  s.Begin("q3", TxnType::kQuery, 150, til);
  r = s.Batch({Script::W("u1", 4, 5500), Script::W("u2", 2, 3700), Script::R("q2", 3),
               Script::R("u4", 0), Script::R("q3", 5)});
  ExpectOk(r[0], 5500, 0.0, false);
  ExpectAbort(r[1], AbortReason::kLateWrite);
  ExpectOk(r[2], 4400, 400.0, true);
  EXPECT_EQ(r[3].kind, OpResult::Kind::kWait);
  EXPECT_EQ(r[3].blocker, s.id("u1"));
  ExpectOk(r[4], 6000, 0.0, false);
  s.Commit("u1");

  // The wait resolves; u2's write on x1 was restored; q2 reads late again.
  s.Begin("u5", TxnType::kUpdate, 160, sr);
  r = s.Batch({Script::R("u4", 0), Script::R("q3", 1), Script::R("q1", 6),
               Script::R("q2", 4), Script::W("u5", 7, 8800)});
  ExpectOk(r[0], 1500, 0.0, false);
  ExpectOk(r[1], 2000, 0.0, false);
  ExpectOk(r[2], 7000, 0.0, false);
  ExpectOk(r[3], 5500, 500.0, true);
  ExpectOk(r[4], 8800, 0.0, false);
  for (const char* name : {"u4", "u5", "q1", "q2", "q3"}) s.Commit(name);
}

/// Asserts that two runs logged field-identical verdicts, left identical
/// counters and no live transaction, and end with identical values.
void ExpectSameRun(Subject& to, const Script& to_script, Subject& sharded,
                   const Script& sharded_script) {
  const auto& want = to_script.log();
  const auto& got = sharded_script.log();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(want[i].what);
    EXPECT_EQ(got[i].what, want[i].what);
    EXPECT_EQ(got[i].result.kind, want[i].result.kind);
    EXPECT_EQ(got[i].result.value, want[i].result.value);
    EXPECT_EQ(got[i].result.blocker, want[i].result.blocker);
    EXPECT_EQ(got[i].result.abort_reason, want[i].result.abort_reason);
    EXPECT_EQ(got[i].result.inconsistency, want[i].result.inconsistency);
    EXPECT_EQ(got[i].result.relaxed, want[i].result.relaxed);
    EXPECT_EQ(got[i].active_after, want[i].active_after);
  }
  EXPECT_EQ(sharded.metrics->CounterSnapshot(), to.metrics->CounterSnapshot());
  EXPECT_EQ(sharded.engine->num_active(), 0u);
  EXPECT_EQ(to.engine->num_active(), 0u);
  for (ObjectId id = 0; id < kObjects; ++id) {
    EXPECT_EQ(sharded.object(id).value(), to.object(id).value())
        << "object " << id;
    EXPECT_FALSE(sharded.object(id).has_uncommitted_write()) << id;
  }
}

class EngineDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EngineDifferentialTest, ShardedMatchesSingleLatchEngine) {
  GroupSchema schema;
  const GroupId hot = *schema.AddGroup("hot", kRootGroup);
  for (ObjectId id = kHotFirst; id < kHotFirst + 4; ++id) {
    ASSERT_TRUE(schema.AssignObject(id, hot).ok());
  }
  Subject to = MakeToEngine(&schema);
  Subject sharded = MakeShardedEngine(&schema, GetParam());
  LoadObjects(to);
  LoadObjects(sharded);

  Script to_script(to);
  Script sharded_script(sharded);
  {
    SCOPED_TRACE("TO engine");
    RunSchedule(to_script, hot);
  }
  {
    SCOPED_TRACE("sharded engine");
    RunSchedule(sharded_script, hot);
  }
  ExpectSameRun(to, to_script, sharded, sharded_script);
}

TEST_P(EngineDifferentialTest, BatchedMatchesSingleOpEngine) {
  GroupSchema schema;
  Subject to = MakeToEngine(&schema);
  Subject sharded = MakeShardedEngine(&schema, GetParam());
  LoadObjects(to);
  LoadObjects(sharded);

  Script to_script(to);
  Script sharded_script(sharded);
  {
    SCOPED_TRACE("TO engine");
    RunBatchSchedule(to_script);
  }
  {
    SCOPED_TRACE("sharded engine, batched");
    RunBatchSchedule(sharded_script);
  }
  ExpectSameRun(to, to_script, sharded, sharded_script);
}

INSTANTIATE_TEST_SUITE_P(Shards, EngineDifferentialTest,
                         ::testing::Values(size_t{1}, size_t{4}));

}  // namespace
}  // namespace esr
