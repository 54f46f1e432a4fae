#ifndef ESR_STORAGE_OBJECT_STORE_H_
#define ESR_STORAGE_OBJECT_STORE_H_

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/types.h"
#include "storage/object.h"

namespace esr {

/// Configuration of the in-memory database loaded at server start-up
/// (the paper's start-up data file, Sec. 6).
struct ObjectStoreOptions {
  /// Number of objects; the paper's database has about 1000.
  size_t num_objects = 1000;
  /// Initial object values are drawn uniformly from this range
  /// (paper Sec. 7: values range from 1000 to 9999).
  Value min_value = 1000;
  Value max_value = 9999;
  /// Depth of the per-object write history used for proper-value lookup.
  size_t history_depth = WriteHistory::kDefaultDepth;
  /// Default object limits; "the values of OIL and OEL are randomly
  /// generated within a specified range" (Sec. 6). A range of
  /// [kUnbounded, kUnbounded] means the object level never rejects.
  Inconsistency min_oil = kUnbounded;
  Inconsistency max_oil = kUnbounded;
  Inconsistency min_oel = kUnbounded;
  Inconsistency max_oel = kUnbounded;
  /// Seed for initial values and randomized limits.
  uint64_t seed = 42;
};

/// The main-memory database: a dense array of `ObjectRecord`s. A record's
/// write-history ring comes from the store's HistoryPool at its first
/// committed write, so objects that are never written cost no ring.
/// Writing an object changes its value in memory; durability is out of
/// scope, exactly as in the prototype (Sec. 6).
class ObjectStore {
 public:
  explicit ObjectStore(const ObjectStoreOptions& options);

  // Records point at history_pool_, so the store stays where it was built.
  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  size_t size() const { return objects_.size(); }

  bool Contains(ObjectId id) const { return id < objects_.size(); }

  /// Borrowed access; the caller must hold the server's latch in
  /// concurrent settings.
  ObjectRecord& Get(ObjectId id);
  const ObjectRecord& Get(ObjectId id) const;

  Result<Value> ReadValue(ObjectId id) const;

  /// Re-randomizes every object's OIL within [lo, hi]; used by the OIL
  /// sweep experiments (Fig. 12/13).
  void SetObjectImportLimits(Inconsistency lo, Inconsistency hi);
  /// Re-randomizes every object's OEL within [lo, hi].
  void SetObjectExportLimits(Inconsistency lo, Inconsistency hi);

  /// Sum of all current values; used by consistency checks in tests.
  Value TotalValue() const;

  const ObjectStoreOptions& options() const { return options_; }

  /// History rings handed out: one per object with a committed write.
  size_t history_rings() const { return history_pool_.rings_in_use(); }

 private:
  ObjectStoreOptions options_;
  Rng rng_;
  // Declared before objects_: records hold pointers to the pool and into
  // its blocks, so it must be constructed first and destroyed last.
  HistoryPool history_pool_;
  std::vector<ObjectRecord> objects_;
};

}  // namespace esr

#endif  // ESR_STORAGE_OBJECT_STORE_H_
