#include "storage/write_history.h"

#include <cassert>

namespace esr {

WriteHistory::WriteHistory(size_t depth)
    : word_{nullptr}, depth_(static_cast<uint8_t>(depth)) {
  assert(depth >= 1 && depth <= kMaxDepth);
}

WriteHistory::WriteHistory(HistoryPool* pool)
    : word_{pool}, depth_(static_cast<uint8_t>(pool->depth())) {
  assert(pool->depth() >= 1 && pool->depth() <= kMaxDepth);
}

WriteHistory::~WriteHistory() {
  if (owns_ring_) delete[] word_.ring;
}

WriteHistory::WriteHistory(WriteHistory&& other) noexcept
    : word_(other.word_),
      depth_(other.depth_),
      start_(other.start_),
      count_(other.count_),
      owns_ring_(other.owns_ring_) {
  // The ring changed hands; leave `other` an empty standalone history.
  other.word_.pool = nullptr;
  other.count_ = 0;
  other.owns_ring_ = false;
}

void WriteHistory::Record(Timestamp ts, Value value) {
  if (count_ == 0) {  // first write: take the ring
    HistoryPool* pool = word_.pool;
    owns_ring_ = pool == nullptr;
    word_.ring = owns_ring_ ? new Entry[depth_] : pool->Allocate();
  }
  // Common case: newest write, appended in order.
  if (count_ == 0 || At(count_ - 1).ts < ts) {
    if (count_ == depth_) {
      // Full ring: the oldest slot becomes the newest entry.
      word_.ring[start_] = Entry{ts, value};
      start_ = (start_ + 1) % depth_;
    } else {
      At(count_) = Entry{ts, value};
      ++count_;
    }
    return;
  }
  // Out-of-order commit: find the upper-bound position (first retained
  // entry with a strictly larger timestamp) scanning from the newest end —
  // stragglers land near it.
  size_t pos = count_;
  while (pos > 0 && ts < At(pos - 1).ts) --pos;
  if (count_ < depth_) {
    for (size_t i = count_; i > pos; --i) At(i) = At(i - 1);
    At(pos) = Entry{ts, value};
    ++count_;
    return;
  }
  // Full ring: inserting evicts the oldest entry, so entries below `pos`
  // shift down one and the newcomer lands at pos - 1. At pos == 0 the
  // newcomer itself is the oldest and is dropped outright.
  if (pos == 0) return;
  for (size_t i = 0; i + 1 < pos; ++i) At(i) = At(i + 1);
  At(pos - 1) = Entry{ts, value};
}

std::optional<Value> WriteHistory::ProperValueBefore(Timestamp before) const {
  // Index backwards through the ring until an older timestamp is found
  // (paper Sec. 5.1).
  for (size_t i = count_; i > 0; --i) {
    if (At(i - 1).ts < before) return At(i - 1).value;
  }
  return std::nullopt;
}

Timestamp WriteHistory::NewestTimestamp() const {
  return count_ == 0 ? Timestamp::Min() : At(count_ - 1).ts;
}

Timestamp WriteHistory::OldestTimestamp() const {
  return count_ == 0 ? Timestamp::Min() : At(0).ts;
}

std::vector<WriteHistory::Entry> WriteHistory::entries() const {
  std::vector<Entry> out;
  out.reserve(count_);
  for (size_t i = 0; i < count_; ++i) out.push_back(At(i));
  return out;
}

WriteHistory::Entry* HistoryPool::Allocate() {
  const size_t slot = rings_in_use_++ % rings_per_block_;
  if (slot == 0) {
    blocks_.push_back(
        std::make_unique<WriteHistory::Entry[]>(rings_per_block_ * depth_));
  }
  return blocks_.back().get() + slot * depth_;
}

}  // namespace esr
