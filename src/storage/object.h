#ifndef ESR_STORAGE_OBJECT_H_
#define ESR_STORAGE_OBJECT_H_

#include <optional>
#include <vector>

#include "common/timestamp.h"
#include "common/types.h"
#include "storage/write_history.h"

namespace esr {

/// One data item of the in-memory database: id, current value, its OIL/OEL
/// (object import/export limits, set at the server side per Sec. 3.2.2),
/// plus the concurrency-control and divergence-control bookkeeping the
/// paper's data manager maintains per object.
class ObjectRecord {
 public:
  /// An uncommitted query ET that has read this object, remembered with
  /// the proper value it observed; needed to compute the inconsistency a
  /// later write would export (paper Sec. 5.2).
  struct QueryReader {
    TxnId txn = kInvalidTxnId;
    Timestamp ts;
    Value proper_value = 0;
  };

  ObjectRecord() : ObjectRecord(kInvalidObjectId, 0, WriteHistory::kDefaultDepth) {}
  /// Standalone record owning its history ring (tests, ad-hoc use).
  ObjectRecord(ObjectId id, Value initial_value, size_t history_depth)
      : history_(history_depth), id_(id), value_(initial_value) {}
  /// Record whose history ring comes from the store's `history_pool` at
  /// its first committed write (the pool must outlive the record).
  ObjectRecord(ObjectId id, Value initial_value, HistoryPool* history_pool)
      : history_(history_pool), id_(id), value_(initial_value) {}

  ObjectId id() const { return id_; }

  /// Starts loading every cache line of the record, so that misses on
  /// several records overlap. A hint accesses nothing, so it needs no
  /// latch; a read hint, unlike a write-intent one, does not claim
  /// ownership of a line another core is writing.
  void Prefetch() const {
    constexpr size_t kCacheLine = 64;
    const char* p = reinterpret_cast<const char*>(this);
    for (size_t off = 0; off < sizeof(ObjectRecord); off += kCacheLine) {
      __builtin_prefetch(p + off);
    }
    __builtin_prefetch(p + sizeof(ObjectRecord) - 1);
  }

  /// The *present* value: the current in-memory value, including an
  /// in-place uncommitted write (shadow paging keeps the pre-image).
  Value value() const { return value_; }

  // -- Object-level inconsistency limits ----------------------------------
  Inconsistency oil() const { return oil_; }
  Inconsistency oel() const { return oel_; }
  void set_oil(Inconsistency oil) { oil_ = oil; }
  void set_oel(Inconsistency oel) { oel_ = oel; }

  // -- Timestamp bookkeeping ----------------------------------------------
  /// Timestamp of the last write applied (committed or not).
  Timestamp write_ts() const { return write_ts_; }
  /// Largest timestamp of any read issued by a query ET.
  Timestamp query_read_ts() const { return query_read_ts_; }
  /// Largest timestamp of any read issued by an update ET.
  Timestamp update_read_ts() const { return update_read_ts_; }
  /// Largest read timestamp overall.
  Timestamp max_read_ts() const {
    return query_read_ts_ > update_read_ts_ ? query_read_ts_
                                            : update_read_ts_;
  }

  void NoteQueryRead(Timestamp ts);
  void NoteUpdateRead(Timestamp ts);

  // -- Uncommitted writer (strict ordering admits at most one) ------------
  bool has_uncommitted_write() const { return writer_ != kInvalidTxnId; }
  TxnId uncommitted_writer() const { return writer_; }

  /// Applies a write in place and records the pre-image (shadow value).
  /// `txn` must either be the current uncommitted writer (blind overwrite
  /// by the same transaction) or there must be no uncommitted writer.
  void ApplyWrite(TxnId txn, Timestamp ts, Value new_value);

  /// Commits the pending write of `txn`: discards the shadow and enters
  /// the write into the history used for proper-value lookups. The first
  /// committed write gives the history its ring.
  void CommitWrite(TxnId txn);

  /// Aborts the pending write of `txn`: restores the shadow value and the
  /// previous write timestamp (paper Sec. 6: shadow technique, no redo log).
  void AbortWrite(TxnId txn);

  // -- Query reader registration (export control, Sec. 5.2) ---------------
  /// Returns whether `txn` was newly registered (false on a repeat read:
  /// one registration per object per txn, Sec. 3.2.1) — callers use it to
  /// skip their own dedup of the per-transaction registered-read list.
  bool RegisterQueryReader(TxnId txn, Timestamp ts, Value proper_value);
  void UnregisterQueryReader(TxnId txn);
  const std::vector<QueryReader>& query_readers() const {
    return query_readers_;
  }

  // -- Proper value lookup (import control, Sec. 5.1) ---------------------
  /// Proper value for a query with timestamp `query_ts`: last committed
  /// write older than the query, from the bounded history. nullopt if the
  /// history no longer reaches back that far. Until the first committed
  /// write the only entry is the load value, at Timestamp::Min().
  std::optional<Value> ProperValueFor(Timestamp query_ts) const;

  /// Committed writes; empty (no ring, no load-value entry) until the
  /// first committed write.
  const WriteHistory& history() const { return history_; }

 private:
  // First, so that id_ fills the tail padding after the history's 12 bytes.
  [[no_unique_address]] WriteHistory history_;
  ObjectId id_;
  Value value_;
  Inconsistency oil_ = kUnbounded;
  Inconsistency oel_ = kUnbounded;

  Timestamp write_ts_ = Timestamp::Min();
  Timestamp query_read_ts_ = Timestamp::Min();
  Timestamp update_read_ts_ = Timestamp::Min();

  // Shadow state for the single in-flight writer.
  TxnId writer_ = kInvalidTxnId;
  Value shadow_value_ = 0;
  Timestamp shadow_write_ts_ = Timestamp::Min();
  Timestamp pending_write_ts_ = Timestamp::Min();

  std::vector<QueryReader> query_readers_;
};

}  // namespace esr

#endif  // ESR_STORAGE_OBJECT_H_
