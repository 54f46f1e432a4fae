#ifndef ESR_ENGINE_SHARDED_SHARDED_ENGINE_H_
#define ESR_ENGINE_SHARDED_SHARDED_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/metrics.h"
#include "engine/sharded/shard.h"
#include "engine/sharded/shard_map.h"
#include "engine/sharded/sharded_accumulator.h"
#include "hierarchy/group_schema.h"
#include "txn/engine.h"
#include "txn/transaction.h"

namespace esr {

/// Sharded-engine configuration (ServerOptions carries one).
struct ShardedEngineOptions {
  /// Object-store partitions, each with its own latch and TO state.
  size_t num_shards = 4;
  /// Stripes of the transaction table (rounded up to a power of two).
  size_t txn_stripes = 16;
  /// Record every committed write per shard for the stress harness's
  /// timestamp-order invariant check. Off for production runs (the log
  /// grows with committed writes).
  bool record_commit_log = false;
};

/// One batched operation for ShardedEngine::ExecuteBatch. At most one
/// in-flight op per transaction per batch (a transaction's ops are
/// sequential; its session submits the next only after consuming the
/// previous result).
struct OpRequest {
  TxnId txn = kInvalidTxnId;
  ObjectId object = kInvalidObjectId;
  bool is_write = false;
  Value value = 0;
};

/// A sharded-engine transaction (defined in sharded_engine.cc).
struct ShardedTxn;

/// One op resolved ahead of its shard latch: the live transaction, the
/// object's record (already prefetched), its shard and its slot in the
/// batch.
struct ResolvedOp {
  ShardedTxn* txn = nullptr;
  ObjectRecord* obj = nullptr;
  uint32_t shard = 0;
  uint32_t index = 0;
};

/// Reusable batch container: submit ops in `reqs`, read verdicts from
/// `results` (parallel arrays). The internal scratch keeps its capacity
/// across calls, so a worker looping on one OpBatch stays off the
/// allocator.
struct OpBatch {
  std::vector<OpRequest> reqs;
  std::vector<OpResult> results;

  // ExecuteBatch scratch (resolved ops per shard, abort worklist).
  std::vector<std::vector<ResolvedOp>> by_shard;
  std::vector<std::pair<ShardedTxn*, AbortReason>> aborted;
};

/// The multi-core ESR engine: the paper's TO protocol (Fig. 3 relaxations,
/// Sec. 5 hierarchical bound checks, shadow-value recovery) scaled out by
/// partitioning the object store into shards — each with its own
/// ProfiledMutex latch, local ObjectStore slice, and data manager — so
/// operations on different shards never serialize.
///
/// Concurrency architecture (DESIGN.md §"Sharded engine"):
///  * Object state is guarded by the owning shard's latch; an operation
///    takes exactly one. No code path ever holds two shard latches at
///    once (commit applies shard by shard), so there is no latch ordering
///    to violate and no deadlock.
///  * Transaction state lives in a striped table (mutex + FlatMap of
///    unique_ptr per stripe, so pointers survive backward-shift erases of
///    their neighbors). A Transaction's contents are only ever touched by
///    its owning session thread.
///  * Ops are resolved before any latch: ExecuteBatch looks up each op's
///    transaction and record and prefetches the record while it groups
///    the batch by shard, so a batch's cache misses overlap instead of
///    landing one at a time under the latch.
///  * The committer applies its own writes and reader deregistrations
///    shard by shard, one latch at a time in ascending shard order, as
///    abort teardown restores shadows.
///  * Per-transaction accumulators work exactly as in the single-latch
///    engine (same trace events, so BoundWalkReplayer / StreamCertifier
///    recertify unchanged). An optional engine-wide budget
///    (SetSharedBounds) is enforced by lock-free ShardedAccumulators on
///    top: shared charge first, transaction charge second, shared
///    uncharge on reject or at teardown.
///
/// Timestamps remain client-assigned (one TimestampGenerator per
/// session); shard-local decisions only ever compare timestamps of
/// operations on that shard's objects, so the cross-shard clock skew a
/// multi-threaded run exhibits costs aborts at worst, never correctness.
class ShardedEngine final : public TransactionEngine {
 public:
  /// `schema` and `metrics` must outlive the engine. The schema may gain
  /// groups after construction (per-transaction accumulators size
  /// lazily), but SetSharedBounds must come after the schema is final.
  ShardedEngine(const ShardedEngineOptions& options,
                const ObjectStoreOptions& store_options,
                const GroupSchema* schema, MetricRegistry* metrics,
                const DivergenceOptions& divergence = {});
  ~ShardedEngine() override;

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // -- TransactionEngine ---------------------------------------------------
  void ReserveForLoad(const LoadHints& hints) override;
  TxnId Begin(TxnType type, Timestamp ts, const BoundSpec& bounds) override;
  OpResult Read(TxnId txn, ObjectId object) override;
  OpResult Write(TxnId txn, ObjectId object, Value value) override;
  Status Commit(TxnId txn) override;
  Status Abort(TxnId txn) override;
  bool IsActive(TxnId txn) const override;
  const Transaction* Find(TxnId txn) const override;
  size_t num_active() const override;
  EngineKind kind() const override { return EngineKind::kSharded; }
  void SetHeadroomTracker(NodeHeadroomTracker* tracker) override;

  // -- Batched submission --------------------------------------------------
  /// Executes every op in `batch.reqs`, filling `batch.results`. Ops are
  /// resolved and grouped by shard so each shard latch is taken once per
  /// batch. At most one op per transaction per batch; `batch` must not be
  /// shared between threads concurrently.
  void ExecuteBatch(OpBatch& batch);

  // -- Engine-wide epsilon budget ------------------------------------------
  /// Installs shared import/export budgets enforced across ALL in-flight
  /// transactions (on top of each transaction's own declaration). Call
  /// after the schema is fully built and before any transaction begins;
  /// not thread-safe against running operations.
  void SetSharedBounds(const BoundSpec& import_bounds,
                       const BoundSpec& export_bounds);

  /// Shared budgets (nullptr until SetSharedBounds).
  ShardedAccumulator* shared_import() { return shared_import_.get(); }
  ShardedAccumulator* shared_export() { return shared_export_.get(); }

  // -- Introspection -------------------------------------------------------
  size_t num_shards() const { return shards_.size(); }
  const ShardMap& shard_map() const { return map_; }

  /// Consistent per-shard stats snapshot (takes that shard's latch).
  ShardStats SnapshotShardStats(size_t shard);

  /// Quiescent-only: one shard's committed-write log (see CommitLogEntry;
  /// empty unless options.record_commit_log).
  const std::vector<CommitLogEntry>& commit_log(size_t shard) const;

  /// Publishes `engine.shard<i>.*` gauges from consistent per-shard
  /// snapshots (one latch acquisition per shard), the commit counter,
  /// and — when shared bounds are installed — the shared accumulators'
  /// in-flight node totals. Safe concurrently with running operations and
  /// commits; the scrape serializes on each shard latch briefly instead of
  /// reading fields torn.
  void ExportShardGauges(MetricRegistry* metrics);

  /// Sum of all committed object values across shards (quiescent only).
  Value TotalValue() const;

  /// True when `id` is a valid global object id.
  bool ContainsObject(ObjectId id) const {
    return static_cast<size_t>(id) < map_.num_objects;
  }

  /// Direct record access for loaders and tests (quiescent only — no
  /// latch is taken).
  ObjectRecord& ObjectAt(ObjectId id) {
    return shards_[map_.ShardOf(id)]->store().Get(map_.LocalId(id));
  }

  /// Commits applied, one per committing transaction (relaxed).
  int64_t commit_batches() const {
    return commits_total_.load(std::memory_order_relaxed);
  }

  MetricRegistry& metrics() { return *metrics_; }
  const GroupSchema& schema() const { return *schema_; }

 private:
  struct TxnStripe {
    mutable std::mutex mu;
    FlatMap<TxnId, std::unique_ptr<ShardedTxn>> map;
    std::vector<std::unique_ptr<ShardedTxn>> pool;
  };

  TxnStripe& StripeFor(TxnId txn) {
    return *stripes_[static_cast<size_t>(txn) & stripe_mask_];
  }
  const TxnStripe& StripeFor(TxnId txn) const {
    return *stripes_[static_cast<size_t>(txn) & stripe_mask_];
  }

  /// Live transaction lookup; the caller must be its owning session (the
  /// pointer stays valid because only the owner can finish it).
  ShardedTxn* FindLive(TxnId txn);

  /// Takes no latch: finds the op's live transaction and its object's
  /// record, and prefetches the record. The record stays put (stores
  /// never reallocate) and only the owning session can finish the
  /// transaction, so both pointers stay valid until the op has run.
  ResolvedOp Resolve(const OpRequest& req, uint32_t index);

  /// Read/Write body: one resolved op under its shard latch, then — on an
  /// abort verdict — TeardownAbort after the latch is released.
  OpResult ExecuteOne(const OpRequest& req);

  /// One resolved operation under the held shard latch: the shared TO-ESR
  /// op path (txn/esr_op.h) on the shard's slice and the engine-wide
  /// budgets, plus the shard's ops/waits/applied_writes stats. An abort
  /// verdict leaves the transaction intact; the caller must release the
  /// latch first, then call TeardownAbort with the result's reason.
  OpResult ExecuteLocked(const ResolvedOp& op, const OpRequest& req,
                         Shard& shard);

  /// Ends the transaction's writes (commit or shadow restore) and
  /// deregisters its reads, shard by shard in ascending order with one
  /// latch held at a time. Every record is resolved and prefetched before
  /// the first latch. Must be called with no shard latch held.
  void FinishSets(ShardedTxn* txn, bool commit);

  /// Abort teardown (op-failure or user abort): FinishSets, then the
  /// abort events, the shared-charge release and the shell's recycling.
  /// Must be called with no shard latch held.
  void TeardownAbort(ShardedTxn* txn, AbortReason reason);

  /// Returns the txn's charges to the shared budgets.
  void UnchargeShared(const Transaction& txn);

  /// Removes the transaction from its stripe and recycles the shell.
  void ReleaseTxn(ShardedTxn* txn);

  const GroupSchema* schema_;
  MetricRegistry* metrics_;
  ShardMap map_;
  std::vector<std::unique_ptr<Shard>> shards_;

  size_t stripe_mask_ = 0;
  std::vector<std::unique_ptr<TxnStripe>> stripes_;
  std::atomic<TxnId> next_txn_id_{1};
  std::atomic<size_t> num_active_{0};
  std::atomic<NodeHeadroomTracker*> headroom_tracker_{nullptr};
  std::atomic<size_t> access_hint_{0};

  std::unique_ptr<ShardedAccumulator> shared_import_;
  std::unique_ptr<ShardedAccumulator> shared_export_;

  std::atomic<int64_t> commits_total_{0};

  EngineCounters counters_;
};

}  // namespace esr

#endif  // ESR_ENGINE_SHARDED_SHARDED_ENGINE_H_
