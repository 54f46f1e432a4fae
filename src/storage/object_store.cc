#include "storage/object_store.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace esr {
namespace {

// Rings per pool block: 256 x 20 entries x 24 B = 120 KiB at the paper's
// depth. Small stores get one block sized to fit them.
constexpr size_t kRingsPerBlock = 256;

// Uniform draw from an inconsistency range that may include kUnbounded.
Inconsistency SampleLimit(Rng* rng, Inconsistency lo, Inconsistency hi) {
  if (std::isinf(lo) || std::isinf(hi)) return kUnbounded;
  if (lo >= hi) return lo;
  return rng->UniformDouble(lo, hi);
}

}  // namespace

ObjectStore::ObjectStore(const ObjectStoreOptions& options)
    : options_(options),
      rng_(options.seed),
      history_pool_(options.history_depth,
                    std::min(options.num_objects, kRingsPerBlock)) {
  ESR_CHECK(options_.num_objects > 0);
  ESR_CHECK(options_.min_value <= options_.max_value);
  ESR_CHECK(options_.history_depth >= 1 &&
            options_.history_depth <= WriteHistory::kMaxDepth)
      << "history depth " << options_.history_depth << " outside [1, "
      << WriteHistory::kMaxDepth << "]";
  objects_.reserve(options_.num_objects);
  for (size_t i = 0; i < options_.num_objects; ++i) {
    const Value v = rng_.UniformInt(options_.min_value, options_.max_value);
    ObjectRecord& rec =
        objects_.emplace_back(static_cast<ObjectId>(i), v, &history_pool_);
    rec.set_oil(SampleLimit(&rng_, options_.min_oil, options_.max_oil));
    rec.set_oel(SampleLimit(&rng_, options_.min_oel, options_.max_oel));
  }
}

ObjectRecord& ObjectStore::Get(ObjectId id) {
  ESR_CHECK(Contains(id)) << "object " << id << " out of range";
  return objects_[id];
}

const ObjectRecord& ObjectStore::Get(ObjectId id) const {
  ESR_CHECK(Contains(id)) << "object " << id << " out of range";
  return objects_[id];
}

Result<Value> ObjectStore::ReadValue(ObjectId id) const {
  if (!Contains(id)) {
    return Status::NotFound("object " + std::to_string(id));
  }
  return objects_[id].value();
}

void ObjectStore::SetObjectImportLimits(Inconsistency lo, Inconsistency hi) {
  for (ObjectRecord& rec : objects_) rec.set_oil(SampleLimit(&rng_, lo, hi));
}

void ObjectStore::SetObjectExportLimits(Inconsistency lo, Inconsistency hi) {
  for (ObjectRecord& rec : objects_) rec.set_oel(SampleLimit(&rng_, lo, hi));
}

Value ObjectStore::TotalValue() const {
  Value total = 0;
  for (const ObjectRecord& rec : objects_) total += rec.value();
  return total;
}

}  // namespace esr
