#include "storage/object.h"

#include <algorithm>

#include "common/logging.h"

namespace esr {

void ObjectRecord::NoteQueryRead(Timestamp ts) {
  query_read_ts_ = std::max(query_read_ts_, ts);
}

void ObjectRecord::NoteUpdateRead(Timestamp ts) {
  update_read_ts_ = std::max(update_read_ts_, ts);
}

void ObjectRecord::ApplyWrite(TxnId txn, Timestamp ts, Value new_value) {
  ESR_CHECK(txn != kInvalidTxnId);
  if (writer_ == kInvalidTxnId) {
    writer_ = txn;
    shadow_value_ = value_;
    shadow_write_ts_ = write_ts_;
  } else {
    // A transaction overwriting its own pending write keeps the original
    // shadow (the pre-transaction image).
    ESR_CHECK(writer_ == txn) << "concurrent uncommitted writers on object "
                              << id_;
  }
  value_ = new_value;
  pending_write_ts_ = ts;
  write_ts_ = std::max(write_ts_, ts);
}

void ObjectRecord::CommitWrite(TxnId txn) {
  ESR_CHECK(writer_ == txn) << "commit by non-writer on object " << id_;
  // The ring starts with the load value (this first writer's shadow) at
  // Timestamp::Min(), so it counts against the depth as it always did.
  if (history_.empty()) history_.Record(Timestamp::Min(), shadow_value_);
  history_.Record(pending_write_ts_, value_);
  writer_ = kInvalidTxnId;
}

void ObjectRecord::AbortWrite(TxnId txn) {
  ESR_CHECK(writer_ == txn) << "abort by non-writer on object " << id_;
  value_ = shadow_value_;
  write_ts_ = shadow_write_ts_;
  writer_ = kInvalidTxnId;
}

bool ObjectRecord::RegisterQueryReader(TxnId txn, Timestamp ts,
                                       Value proper_value) {
  for (const QueryReader& r : query_readers_) {
    if (r.txn == txn) return false;  // one read per object per txn (3.2.1)
  }
  query_readers_.push_back(QueryReader{txn, ts, proper_value});
  return true;
}

void ObjectRecord::UnregisterQueryReader(TxnId txn) {
  auto it = std::find_if(query_readers_.begin(), query_readers_.end(),
                         [txn](const QueryReader& r) { return r.txn == txn; });
  if (it != query_readers_.end()) query_readers_.erase(it);
}

std::optional<Value> ObjectRecord::ProperValueFor(Timestamp query_ts) const {
  if (!history_.empty()) return history_.ProperValueBefore(query_ts);
  // No committed write yet: the load value, held in the shadow while a
  // first writer is pending.
  if (!(Timestamp::Min() < query_ts)) return std::nullopt;
  return writer_ == kInvalidTxnId ? value_ : shadow_value_;
}

}  // namespace esr
