#ifndef ESR_HIERARCHY_GROUP_SCHEMA_H_
#define ESR_HIERARCHY_GROUP_SCHEMA_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace esr {

/// Identifier of a node in the group hierarchy. Node 0 is always the root
/// and represents the transaction level (TIL/TEL live there).
using GroupId = uint32_t;

inline constexpr GroupId kRootGroup = 0;
inline constexpr GroupId kInvalidGroup = UINT32_MAX;

/// The database's group hierarchy (paper Sec. 3.1): data items are grouped
/// by commonality — e.g. a bank's accounts into company / preferred /
/// personal categories, each subdivided further — and inconsistency limits
/// can be attached to any node. Objects live at the leaves; interior nodes
/// represent groups; the root represents the whole transaction.
///
/// The schema itself is shared, immutable-after-build metadata; the
/// per-transaction limits and accumulated inconsistency live in
/// `BoundSpec` and `InconsistencyAccumulator`.
class GroupSchema {
 public:
  /// Creates a schema containing only the root group ("overall"). With no
  /// further groups this degenerates to the paper's two-level prototype
  /// configuration: transaction level + object level.
  GroupSchema();

  /// Adds a group under `parent`. Names must be unique.
  Result<GroupId> AddGroup(const std::string& name, GroupId parent);

  /// Places an object under a group. Objects not assigned anywhere hang
  /// directly off the root. Reassignment is allowed before execution
  /// starts. The map is dense in ObjectId, so ids should be small.
  Status AssignObject(ObjectId object, GroupId group);

  /// Relative weight of a group: the inconsistency charged to a node is
  /// d * weight(node), implementing the paper's weighted-sum variant
  /// ("bounds could also be specified using relative weights"). Default 1.
  Status SetWeight(GroupId group, double weight);

  size_t num_groups() const { return parents_.size(); }
  bool Contains(GroupId group) const { return group < parents_.size(); }

  GroupId parent(GroupId group) const { return parents_[group]; }
  const std::string& name(GroupId group) const { return names_[group]; }
  double weight(GroupId group) const { return weights_[group]; }

  Result<GroupId> FindGroup(const std::string& name) const;

  /// Group an object is directly assigned to (root if unassigned).
  GroupId GroupOf(ObjectId object) const;

  /// Nodes from the object's group up to and including the root — the
  /// bottom-up control path of Sec. 5.3.1.
  std::vector<GroupId> PathToRoot(ObjectId object) const;

  /// Number of levels on the longest root-to-group path (root alone = 1).
  size_t depth() const;

 private:
  std::vector<GroupId> parents_;   // parents_[0] == kRootGroup (self)
  std::vector<std::string> names_;
  std::vector<double> weights_;
  std::unordered_map<std::string, GroupId> by_name_;
  // On the accumulator charge path (GroupOf per TryCharge): indexed by
  // ObjectId, grown by AssignObject; ids past the end are in the root.
  std::vector<GroupId> object_groups_;
};

}  // namespace esr

#endif  // ESR_HIERARCHY_GROUP_SCHEMA_H_
