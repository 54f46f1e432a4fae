#include "hierarchy/group_schema.h"

#include <gtest/gtest.h>

namespace esr {
namespace {

TEST(GroupSchemaTest, StartsWithRootOnly) {
  GroupSchema schema;
  EXPECT_EQ(schema.num_groups(), 1u);
  EXPECT_EQ(schema.depth(), 1u);
  EXPECT_EQ(schema.name(kRootGroup), "overall");
  EXPECT_EQ(schema.parent(kRootGroup), kRootGroup);
}

TEST(GroupSchemaTest, AddGroupUnderRoot) {
  GroupSchema schema;
  auto company = schema.AddGroup("company", kRootGroup);
  ASSERT_TRUE(company.ok());
  EXPECT_EQ(schema.parent(*company), kRootGroup);
  EXPECT_EQ(schema.name(*company), "company");
  EXPECT_EQ(schema.num_groups(), 2u);
  EXPECT_EQ(schema.depth(), 2u);
}

TEST(GroupSchemaTest, RejectsUnknownParent) {
  GroupSchema schema;
  EXPECT_EQ(schema.AddGroup("x", 42).status().code(), StatusCode::kNotFound);
}

TEST(GroupSchemaTest, RejectsDuplicateNames) {
  GroupSchema schema;
  ASSERT_TRUE(schema.AddGroup("company", kRootGroup).ok());
  EXPECT_EQ(schema.AddGroup("company", kRootGroup).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GroupSchemaTest, FindGroupByName) {
  GroupSchema schema;
  const GroupId company = *schema.AddGroup("company", kRootGroup);
  EXPECT_EQ(*schema.FindGroup("company"), company);
  EXPECT_EQ(*schema.FindGroup("overall"), kRootGroup);
  EXPECT_EQ(schema.FindGroup("nope").status().code(), StatusCode::kNotFound);
}

TEST(GroupSchemaTest, UnassignedObjectsHangOffRoot) {
  GroupSchema schema;
  EXPECT_EQ(schema.GroupOf(123), kRootGroup);
  const auto path = schema.PathToRoot(123);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], kRootGroup);
}

TEST(GroupSchemaTest, BankingHierarchyPaths) {
  // The paper's Fig. 1: overall -> {company, preferred, personal},
  // company -> {com1, com2}, com1 -> {div1, div2}.
  GroupSchema schema;
  const GroupId company = *schema.AddGroup("company", kRootGroup);
  const GroupId preferred = *schema.AddGroup("preferred", kRootGroup);
  const GroupId com1 = *schema.AddGroup("com1", company);
  const GroupId div1 = *schema.AddGroup("div1", com1);
  ASSERT_TRUE(schema.AssignObject(7, div1).ok());
  ASSERT_TRUE(schema.AssignObject(8, preferred).ok());

  EXPECT_EQ(schema.depth(), 4u);
  const auto path7 = schema.PathToRoot(7);
  ASSERT_EQ(path7.size(), 4u);
  EXPECT_EQ(path7[0], div1);
  EXPECT_EQ(path7[1], com1);
  EXPECT_EQ(path7[2], company);
  EXPECT_EQ(path7[3], kRootGroup);

  const auto path8 = schema.PathToRoot(8);
  ASSERT_EQ(path8.size(), 2u);
  EXPECT_EQ(path8[0], preferred);
  EXPECT_EQ(path8[1], kRootGroup);
}

TEST(GroupSchemaTest, AssignObjectValidatesGroup) {
  GroupSchema schema;
  EXPECT_EQ(schema.AssignObject(1, 99).code(), StatusCode::kNotFound);
}

TEST(GroupSchemaTest, ReassignmentMovesObject) {
  GroupSchema schema;
  const GroupId a = *schema.AddGroup("a", kRootGroup);
  const GroupId b = *schema.AddGroup("b", kRootGroup);
  ASSERT_TRUE(schema.AssignObject(1, a).ok());
  ASSERT_TRUE(schema.AssignObject(1, b).ok());
  EXPECT_EQ(schema.GroupOf(1), b);
}

TEST(GroupSchemaTest, UnassignedObjectsAroundAnAssignedOneStayAtRoot) {
  GroupSchema schema;
  const GroupId g = *schema.AddGroup("g", kRootGroup);
  EXPECT_EQ(schema.AssignObject(1, 99).code(), StatusCode::kNotFound);
  EXPECT_EQ(schema.GroupOf(1), kRootGroup);  // a refused assignment
  ASSERT_TRUE(schema.AssignObject(5, g).ok());
  EXPECT_EQ(schema.GroupOf(5), g);
  for (ObjectId id : {0u, 1u, 4u, 6u, 1000u}) {
    EXPECT_EQ(schema.GroupOf(id), kRootGroup) << "object " << id;
  }
  ASSERT_TRUE(schema.AssignObject(5, kRootGroup).ok());
  EXPECT_EQ(schema.PathToRoot(5), std::vector<GroupId>{kRootGroup});
}

TEST(GroupSchemaTest, WeightsDefaultToOneAndValidate) {
  GroupSchema schema;
  const GroupId g = *schema.AddGroup("g", kRootGroup);
  EXPECT_EQ(schema.weight(g), 1.0);
  EXPECT_TRUE(schema.SetWeight(g, 2.5).ok());
  EXPECT_EQ(schema.weight(g), 2.5);
  EXPECT_EQ(schema.SetWeight(g, -1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(schema.SetWeight(77, 1.0).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace esr
