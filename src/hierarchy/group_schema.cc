#include "hierarchy/group_schema.h"

#include <algorithm>

namespace esr {

GroupSchema::GroupSchema() {
  parents_.push_back(kRootGroup);
  names_.push_back("overall");
  weights_.push_back(1.0);
  by_name_.emplace("overall", kRootGroup);
}

Result<GroupId> GroupSchema::AddGroup(const std::string& name,
                                      GroupId parent) {
  if (!Contains(parent)) {
    return Status::NotFound("parent group " + std::to_string(parent));
  }
  if (by_name_.count(name) > 0) {
    return Status::InvalidArgument("duplicate group name '" + name + "'");
  }
  const GroupId id = static_cast<GroupId>(parents_.size());
  parents_.push_back(parent);
  names_.push_back(name);
  weights_.push_back(1.0);
  by_name_.emplace(name, id);
  return id;
}

Status GroupSchema::AssignObject(ObjectId object, GroupId group) {
  if (!Contains(group)) {
    return Status::NotFound("group " + std::to_string(group));
  }
  if (object >= object_groups_.size()) {
    object_groups_.resize(static_cast<size_t>(object) + 1, kRootGroup);
  }
  object_groups_[object] = group;
  return Status::OK();
}

Status GroupSchema::SetWeight(GroupId group, double weight) {
  if (!Contains(group)) {
    return Status::NotFound("group " + std::to_string(group));
  }
  if (weight < 0.0) {
    return Status::InvalidArgument("weight must be non-negative");
  }
  weights_[group] = weight;
  return Status::OK();
}

Result<GroupId> GroupSchema::FindGroup(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("group '" + name + "'");
  }
  return it->second;
}

GroupId GroupSchema::GroupOf(ObjectId object) const {
  return object < object_groups_.size() ? object_groups_[object] : kRootGroup;
}

std::vector<GroupId> GroupSchema::PathToRoot(ObjectId object) const {
  std::vector<GroupId> path;
  GroupId g = GroupOf(object);
  path.push_back(g);
  while (g != kRootGroup) {
    g = parents_[g];
    path.push_back(g);
  }
  return path;
}

size_t GroupSchema::depth() const {
  size_t max_depth = 1;
  for (GroupId g = 0; g < parents_.size(); ++g) {
    size_t d = 1;
    GroupId cur = g;
    while (cur != kRootGroup) {
      cur = parents_[cur];
      ++d;
    }
    max_depth = std::max(max_depth, d);
  }
  return max_depth;
}

}  // namespace esr
