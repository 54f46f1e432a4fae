#ifndef ESR_STORAGE_WRITE_HISTORY_H_
#define ESR_STORAGE_WRITE_HISTORY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/timestamp.h"
#include "common/types.h"

namespace esr {

class HistoryPool;

/// Bounded record of the most recent writes to one object, used to find a
/// query's *proper value* — "the value written by the last write with a
/// timestamp less than the query's" (paper Sec. 5.1).
///
/// The paper keeps the last 20 writes per object (20 = measured query
/// duration / update duration); the depth is configurable here and swept
/// by the `micro_history_depth` ablation bench.
///
/// Storage is a ring of `depth` entries, kept sorted by timestamp (strict
/// TO commits nearly, but not exactly, in ts order). The ring is taken at
/// the first Record: a store's histories draw it from the store's
/// HistoryPool, a standalone history (tests, ad-hoc records) allocates and
/// owns it. Until then the history is empty and holds 12 bytes — the ring
/// word and a header of 8-bit start, count and depth plus an ownership
/// flag — so an object never written pays no ring.
///
/// This is NOT multiversion timestamp ordering: reads always return the
/// object's current (present) value; the history is consulted only to
/// measure how inconsistent that present value is.
class WriteHistory {
 public:
  struct Entry {
    Timestamp ts;
    Value value;
  };

  static constexpr size_t kDefaultDepth = 20;
  /// The ring header (start, count, depth) is 8 bits wide.
  static constexpr size_t kMaxDepth = UINT8_MAX;

  /// Standalone history that allocates and owns its `depth`-slot ring;
  /// 1 <= depth <= kMaxDepth.
  explicit WriteHistory(size_t depth = kDefaultDepth);

  /// History whose ring comes from `pool`, which must outlive it.
  explicit WriteHistory(HistoryPool* pool);

  ~WriteHistory();
  WriteHistory(const WriteHistory&) = delete;
  WriteHistory& operator=(const WriteHistory&) = delete;
  WriteHistory(WriteHistory&& other) noexcept;
  WriteHistory& operator=(WriteHistory&& other) = delete;

  /// Records a committed write, keeping the ring sorted by timestamp;
  /// once full, the oldest retained write is evicted. A write older than
  /// everything a full ring retains is dropped (it would be evicted
  /// immediately).
  void Record(Timestamp ts, Value value);

  /// Value written by the newest write with ts strictly less than
  /// `before`, or nullopt if that write has already fallen off the ring
  /// (the query is older than everything we remember).
  std::optional<Value> ProperValueBefore(Timestamp before) const;

  /// Timestamp of the newest retained write, or Timestamp::Min() if empty.
  Timestamp NewestTimestamp() const;

  /// Timestamp of the oldest retained write, or Timestamp::Min() if empty.
  Timestamp OldestTimestamp() const;

  size_t size() const { return count_; }
  size_t depth() const { return depth_; }
  /// Empty exactly until the first Record, which takes the ring.
  bool empty() const { return count_ == 0; }

  /// Oldest-to-newest copy, for tests and debugging (the ring itself is
  /// not contiguous in logical order).
  std::vector<Entry> entries() const;

 private:
  // i-th retained entry in logical (oldest-to-newest) order.
  Entry& At(size_t i) { return word_.ring[(start_ + i) % depth_]; }
  const Entry& At(size_t i) const {
    return word_.ring[(start_ + i) % depth_];
  }

  union {
    HistoryPool* pool;  // while empty: the ring's source (null: standalone)
    Entry* ring;        // from the first Record on
  } word_;
  uint8_t depth_;
  uint8_t start_ = 0;  // ring index of the oldest retained entry
  uint8_t count_ = 0;
  bool owns_ring_ = false;
};

/// Ring storage for one store's write histories: blocks of
/// `rings_per_block` rings of `depth` entries, handed out one ring per
/// object at its first committed write. Blocks never move, so a ring stays
/// valid for the pool's lifetime. Unsynchronized: a store, and so its pool,
/// is only touched under the latch that guards it.
class HistoryPool {
 public:
  HistoryPool(size_t depth, size_t rings_per_block)
      : depth_(depth), rings_per_block_(rings_per_block) {}

  HistoryPool(const HistoryPool&) = delete;
  HistoryPool& operator=(const HistoryPool&) = delete;

  size_t depth() const { return depth_; }
  size_t rings_in_use() const { return rings_in_use_; }

  /// A fresh `depth`-entry ring.
  WriteHistory::Entry* Allocate();

 private:
  size_t depth_;
  size_t rings_per_block_;
  size_t rings_in_use_ = 0;
  std::vector<std::unique_ptr<WriteHistory::Entry[]>> blocks_;
};

}  // namespace esr

#endif  // ESR_STORAGE_WRITE_HISTORY_H_
