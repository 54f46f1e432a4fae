#include "engine/sharded/sharded_engine.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "obs/trace.h"
#include "txn/esr_op.h"

namespace esr {

/// A pooled transaction shell. `by_shard` is commit and abort scratch: the
/// write and read sets resolved to records and bucketed by shard; pooling
/// keeps the buckets' capacity.
struct ShardedTxn final : Transaction {
  using Transaction::Transaction;

  struct SetRef {
    ObjectRecord* obj;
    ObjectId object;
    bool write;
  };
  std::vector<std::vector<SetRef>> by_shard;
};

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

ShardedEngine::ShardedEngine(const ShardedEngineOptions& options,
                             const ObjectStoreOptions& store_options,
                             const GroupSchema* schema,
                             MetricRegistry* metrics,
                             const DivergenceOptions& divergence)
    : schema_(schema), metrics_(metrics), counters_(metrics) {
  ESR_CHECK(schema_ != nullptr);
  ESR_CHECK(metrics_ != nullptr);
  map_.num_shards = std::max<size_t>(1, options.num_shards);
  map_.num_objects = store_options.num_objects;
  shards_.reserve(map_.num_shards);
  for (size_t s = 0; s < map_.num_shards; ++s) {
    ObjectStoreOptions local = store_options;
    local.num_objects = map_.CountFor(s);
    // Decorrelate per-shard initial values / object limits while keeping
    // the whole database deterministic in the base seed.
    local.seed = store_options.seed + static_cast<uint64_t>(s) * 0x9E3779B97F4A7C15ull;
    shards_.push_back(std::make_unique<Shard>(s, local, divergence, metrics,
                                              options.record_commit_log));
  }
  const size_t stripes = RoundUpPow2(std::max<size_t>(1, options.txn_stripes));
  stripe_mask_ = stripes - 1;
  stripes_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<TxnStripe>());
  }
}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::ReserveForLoad(const LoadHints& hints) {
  if (hints.objects_per_txn > 0) {
    access_hint_.store(hints.objects_per_txn, std::memory_order_relaxed);
  }
  if (hints.concurrent_txns > 0) {
    // Double the fair share per stripe: id striping is uniform but
    // transient imbalance is free to absorb up front.
    const size_t per_stripe = 2 * (hints.concurrent_txns / stripes_.size() + 1);
    for (auto& stripe : stripes_) {
      std::lock_guard<std::mutex> lock(stripe->mu);
      stripe->map.Reserve(per_stripe);
      stripe->pool.reserve(per_stripe);
    }
  }
}

void ShardedEngine::SetHeadroomTracker(NodeHeadroomTracker* tracker) {
  headroom_tracker_.store(tracker, std::memory_order_relaxed);
}

void ShardedEngine::SetSharedBounds(const BoundSpec& import_bounds,
                                    const BoundSpec& export_bounds) {
  ESR_CHECK(num_active_.load(std::memory_order_relaxed) == 0)
      << "SetSharedBounds with transactions in flight";
  shared_import_ = std::make_unique<ShardedAccumulator>(
      schema_, import_bounds, ChargeDirection::kImport, shards_.size());
  shared_export_ = std::make_unique<ShardedAccumulator>(
      schema_, export_bounds, ChargeDirection::kExport, shards_.size());
}

ShardedTxn* ShardedEngine::FindLive(TxnId txn) {
  TxnStripe& stripe = StripeFor(txn);
  std::lock_guard<std::mutex> lock(stripe.mu);
  std::unique_ptr<ShardedTxn>* slot = stripe.map.Find(txn);
  return slot == nullptr ? nullptr : slot->get();
}

TxnId ShardedEngine::Begin(TxnType type, Timestamp ts,
                           const BoundSpec& bounds) {
  ScopedPhaseTimer phase(ProfilePhase::kValidate);
  const TxnId id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  TxnStripe& stripe = StripeFor(id);
  ShardedTxn* txn;
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    if (!stripe.pool.empty()) {
      std::unique_ptr<ShardedTxn> shell = std::move(stripe.pool.back());
      stripe.pool.pop_back();
      shell->ResetForReuse(id, type, ts, bounds);
      txn = stripe.map.TryEmplace(id, std::move(shell)).first->get();
    } else {
      txn = stripe.map
                .TryEmplace(id, std::make_unique<ShardedTxn>(id, type, ts,
                                                             schema_, bounds))
                .first->get();
    }
  }
  OnTxnBegin(*txn, access_hint_.load(std::memory_order_relaxed),
             headroom_tracker_.load(std::memory_order_relaxed), counters_);
  num_active_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

OpResult ShardedEngine::Read(TxnId txn, ObjectId object) {
  return ExecuteOne(OpRequest{txn, object, /*is_write=*/false, 0});
}

OpResult ShardedEngine::Write(TxnId txn, ObjectId object, Value value) {
  return ExecuteOne(OpRequest{txn, object, /*is_write=*/true, value});
}

ResolvedOp ShardedEngine::Resolve(const OpRequest& req, uint32_t index) {
  ShardedTxn* t = FindLive(req.txn);
  ESR_CHECK(t != nullptr)
      << "operation on unknown/finished transaction " << req.txn;
  const size_t s = map_.ShardOf(req.object);
  ObjectRecord& obj = shards_[s]->store().Get(map_.LocalId(req.object));
  obj.Prefetch();
  return ResolvedOp{t, &obj, static_cast<uint32_t>(s), index};
}

OpResult ShardedEngine::ExecuteOne(const OpRequest& req) {
  ScopedPhaseTimer phase(ProfilePhase::kValidate);
  const ResolvedOp op = Resolve(req, 0);
  Shard& shard = *shards_[op.shard];
  OpResult r;
  {
    std::lock_guard<ProfiledMutex> lock(shard.latch());
    r = ExecuteLocked(op, req, shard);
  }
  if (r.kind == OpResult::Kind::kAbort) TeardownAbort(op.txn, r.abort_reason);
  return r;
}

OpResult ShardedEngine::ExecuteLocked(const ResolvedOp& op,
                                      const OpRequest& req, Shard& shard) {
  shard.latch().set_holder(req.txn);
  Transaction& txn = *op.txn;
  TraceSpan op_span(SpanKind::kOp, req.txn, txn.ts().site, req.object,
                    txn.trace_span());
  const EsrOpContext ctx{&shard.data(), &shard.bound_stats(), &counters_,
                         shared_import_.get(), shared_export_.get(),
                         shard.index()};
  const OpResult r = req.is_write
                         ? EsrWrite(txn, req.object, *op.obj, req.value, ctx)
                         : EsrRead(txn, req.object, *op.obj, ctx);
  ShardStats& stats = shard.stats();
  stats.ops++;
  if (r.kind == OpResult::Kind::kWait) {
    stats.waits++;
  } else if (req.is_write && r.ok()) {
    stats.applied_writes++;
  }
  return r;
}

void ShardedEngine::ExecuteBatch(OpBatch& batch) {
  ScopedPhaseTimer phase(ProfilePhase::kValidate);
  const size_t n = shards_.size();
  if (batch.by_shard.size() < n) batch.by_shard.resize(n);
  for (auto& ops : batch.by_shard) ops.clear();
  batch.aborted.clear();
  batch.results.clear();
  batch.results.resize(batch.reqs.size());
  // One pass resolves, prefetches and groups: by the time a shard's latch
  // is taken, the misses on its records have been in flight together.
  for (size_t i = 0; i < batch.reqs.size(); ++i) {
    const ResolvedOp op = Resolve(batch.reqs[i], static_cast<uint32_t>(i));
    batch.by_shard[op.shard].push_back(op);
  }
  for (size_t s = 0; s < n; ++s) {
    const std::vector<ResolvedOp>& ops = batch.by_shard[s];
    if (ops.empty()) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<ProfiledMutex> lock(shard.latch());
    for (const ResolvedOp& op : ops) {
      const OpResult r = ExecuteLocked(op, batch.reqs[op.index], shard);
      batch.results[op.index] = r;
      if (r.kind == OpResult::Kind::kAbort) {
        batch.aborted.emplace_back(op.txn, r.abort_reason);
      }
    }
  }
  // Teardown outside every shard latch: abort restore touches the
  // transaction's whole write set, which can span other shards. A batch
  // holds one op per transaction, so no resolved op outlives its
  // transaction here.
  for (const auto& entry : batch.aborted) {
    TeardownAbort(entry.first, entry.second);
  }
}

Status ShardedEngine::Commit(TxnId txn) {
  ScopedPhaseTimer phase(ProfilePhase::kCommit);
  ShardedTxn* t = FindLive(txn);
  if (t == nullptr) {
    return Status::FailedPrecondition("transaction " + std::to_string(txn) +
                                      " is not active");
  }
  {
    // The shard-store mutation is apply work, nested under kCommit.
    ScopedPhaseTimer apply_phase(ProfilePhase::kApply);
    FinishSets(t, /*commit=*/true);
  }
  commits_total_.fetch_add(1, std::memory_order_relaxed);
  {
    TraceSpan commit_span(SpanKind::kCommit, txn, t->ts().site, 0,
                          t->trace_span());
    OnTxnEnd(*t, TxnState::kCommitted, AbortReason::kNone, counters_);
  }
  UnchargeShared(*t);
  ReleaseTxn(t);
  return Status::OK();
}

void ShardedEngine::FinishSets(ShardedTxn* txn, bool commit) {
  auto& by_shard = txn->by_shard;
  if (by_shard.size() < shards_.size()) by_shard.resize(shards_.size());
  auto add = [&](ObjectId object, bool write) {
    const size_t s = map_.ShardOf(object);
    ObjectRecord& obj = shards_[s]->store().Get(map_.LocalId(object));
    obj.Prefetch();
    by_shard[s].push_back({&obj, object, write});
  };
  for (const ObjectId object : txn->pending_writes()) add(object, true);
  for (const ObjectId object : txn->registered_reads()) add(object, false);
  const TxnId id = txn->id();
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::vector<ShardedTxn::SetRef>& refs = by_shard[s];
    if (refs.empty()) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<ProfiledMutex> lock(shard.latch());
    shard.latch().set_holder(id);
    ShardStats& stats = shard.stats();
    bool wrote = false;
    for (const ShardedTxn::SetRef& ref : refs) {
      if (!ref.write) {
        ref.obj->UnregisterQueryReader(id);
      } else if (commit) {
        ref.obj->CommitWrite(id);
        shard.RecordCommit(ref.object, id, ref.obj->write_ts());
        stats.committed_writes++;
        wrote = true;
      } else {
        ref.obj->AbortWrite(id);
      }
    }
    refs.clear();
    // One committing transaction is one commit batch on each shard it
    // writes, which keeps the stats chain's last link.
    if (wrote) {
      stats.committed_writers++;
      stats.commit_batches++;
    }
  }
}

Status ShardedEngine::Abort(TxnId txn) {
  ScopedPhaseTimer phase(ProfilePhase::kCommit);
  ShardedTxn* t = FindLive(txn);
  if (t == nullptr) {
    return Status::FailedPrecondition("transaction " + std::to_string(txn) +
                                      " is not active");
  }
  TraceSpan commit_span(SpanKind::kCommit, txn, t->ts().site, 0,
                        t->trace_span());
  TeardownAbort(t, AbortReason::kUserRequested);
  return Status::OK();
}

void ShardedEngine::TeardownAbort(ShardedTxn* txn, AbortReason reason) {
  // Abort teardown is commit-path work whichever op triggered it; the
  // nested scope keeps shadow recovery (Sec. 6) out of kValidate
  // self-time when a mid-operation abort lands here.
  ScopedPhaseTimer phase(ProfilePhase::kCommit);
  FinishSets(txn, /*commit=*/false);
  OnTxnEnd(*txn, TxnState::kAborted, reason, counters_);
  UnchargeShared(*txn);
  ReleaseTxn(txn);
}

void ShardedEngine::UnchargeShared(const Transaction& txn) {
  if (txn.is_query()) {
    if (shared_import_ != nullptr && shared_import_->enforced()) {
      shared_import_->UnchargeAccumulated(txn.accumulator());
    }
    return;
  }
  if (shared_export_ != nullptr && shared_export_->enforced()) {
    shared_export_->UnchargeAccumulated(txn.accumulator());
  }
  if (txn.import_accumulator() != nullptr && shared_import_ != nullptr &&
      shared_import_->enforced()) {
    shared_import_->UnchargeAccumulated(*txn.import_accumulator());
  }
}

void ShardedEngine::ReleaseTxn(ShardedTxn* txn) {
  const TxnId id = txn->id();
  TxnStripe& stripe = StripeFor(id);
  std::lock_guard<std::mutex> lock(stripe.mu);
  std::unique_ptr<ShardedTxn>* slot = stripe.map.Find(id);
  ESR_CHECK(slot != nullptr) << "double release of transaction " << id;
  stripe.pool.push_back(std::move(*slot));
  stripe.map.Erase(id);
  num_active_.fetch_sub(1, std::memory_order_relaxed);
}

bool ShardedEngine::IsActive(TxnId txn) const {
  const TxnStripe& stripe = StripeFor(txn);
  std::lock_guard<std::mutex> lock(stripe.mu);
  return stripe.map.Contains(txn);
}

const Transaction* ShardedEngine::Find(TxnId txn) const {
  const TxnStripe& stripe = StripeFor(txn);
  std::lock_guard<std::mutex> lock(stripe.mu);
  const std::unique_ptr<ShardedTxn>* slot = stripe.map.Find(txn);
  return slot == nullptr ? nullptr : slot->get();
}

size_t ShardedEngine::num_active() const {
  return num_active_.load(std::memory_order_relaxed);
}

ShardStats ShardedEngine::SnapshotShardStats(size_t shard) {
  ESR_CHECK(shard < shards_.size());
  return shards_[shard]->SnapshotStats();
}

const std::vector<CommitLogEntry>& ShardedEngine::commit_log(
    size_t shard) const {
  ESR_CHECK(shard < shards_.size());
  return shards_[shard]->commit_log();
}

void ShardedEngine::ExportShardGauges(MetricRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->gauge("engine.shards").Set(static_cast<double>(shards_.size()));
  metrics->gauge("engine.commit_batches")
      .Set(static_cast<double>(
          commits_total_.load(std::memory_order_relaxed)));
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ShardStats stats = shards_[s]->SnapshotStats();
    const std::string prefix = "engine.shard" + std::to_string(s);
    metrics->gauge(prefix + ".ops").Set(static_cast<double>(stats.ops));
    metrics->gauge(prefix + ".waits").Set(static_cast<double>(stats.waits));
    metrics->gauge(prefix + ".applied_writes")
        .Set(static_cast<double>(stats.applied_writes));
    metrics->gauge(prefix + ".committed_writes")
        .Set(static_cast<double>(stats.committed_writes));
    metrics->gauge(prefix + ".committed_writers")
        .Set(static_cast<double>(stats.committed_writers));
    metrics->gauge(prefix + ".commit_batches")
        .Set(static_cast<double>(stats.commit_batches));
  }
  if (shared_import_ != nullptr) shared_import_->ExportGauges(metrics);
  if (shared_export_ != nullptr) shared_export_->ExportGauges(metrics);
}

Value ShardedEngine::TotalValue() const {
  Value total = 0;
  for (const auto& shard : shards_) {
    total += shard->store().TotalValue();
  }
  return total;
}

}  // namespace esr
