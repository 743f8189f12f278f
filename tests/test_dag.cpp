#include "graph/dag.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace fastbns {
namespace {

TEST(Dag, AddEdgeBasics) {
  Dag dag(4);
  EXPECT_TRUE(dag.add_edge(0, 1));
  EXPECT_TRUE(dag.has_edge(0, 1));
  EXPECT_FALSE(dag.has_edge(1, 0));
  EXPECT_FALSE(dag.add_edge(0, 1));  // duplicate
  EXPECT_FALSE(dag.add_edge(2, 2));  // self loop
  EXPECT_EQ(dag.num_edges(), 1);
}

TEST(Dag, CycleRejection) {
  Dag dag(3);
  ASSERT_TRUE(dag.add_edge(0, 1));
  ASSERT_TRUE(dag.add_edge(1, 2));
  EXPECT_FALSE(dag.add_edge(2, 0));  // would close the cycle
  EXPECT_EQ(dag.num_edges(), 2);
  EXPECT_TRUE(dag.is_acyclic());
}

TEST(Dag, ParentsAndChildrenSorted) {
  Dag dag(5);
  dag.add_edge(4, 2);
  dag.add_edge(0, 2);
  dag.add_edge(3, 2);
  EXPECT_EQ(dag.parents(2), (std::vector<VarId>{0, 3, 4}));
  EXPECT_EQ(dag.in_degree(2), 3);
  dag.add_edge(2, 1);
  EXPECT_EQ(dag.children(2), (std::vector<VarId>{1}));
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  Dag dag(6);
  dag.add_edge(5, 0);
  dag.add_edge(0, 3);
  dag.add_edge(3, 1);
  dag.add_edge(5, 1);
  const auto order = dag.topological_order();
  ASSERT_EQ(order.size(), 6u);
  auto position = [&](VarId v) {
    return std::find(order.begin(), order.end(), v) - order.begin();
  };
  EXPECT_LT(position(5), position(0));
  EXPECT_LT(position(0), position(3));
  EXPECT_LT(position(3), position(1));
}

TEST(Dag, UncheckedEdgeCycleDetectedByIsAcyclic) {
  Dag dag(2);
  dag.add_edge_unchecked(0, 1);
  dag.add_edge_unchecked(1, 0);
  EXPECT_FALSE(dag.is_acyclic());
  EXPECT_LT(dag.topological_order().size(), 2u);
}

TEST(Dag, AncestorsOfSeeds) {
  // 0 -> 1 -> 3, 2 -> 3, 4 isolated.
  Dag dag(5);
  dag.add_edge(0, 1);
  dag.add_edge(1, 3);
  dag.add_edge(2, 3);
  const auto anc = dag.ancestors_of({3});
  EXPECT_TRUE(anc[0]);
  EXPECT_TRUE(anc[1]);
  EXPECT_TRUE(anc[2]);
  EXPECT_FALSE(anc[3]);  // seeds are not their own ancestors
  EXPECT_FALSE(anc[4]);
}

TEST(Dag, AncestorsOfMultipleSeeds) {
  Dag dag(4);
  dag.add_edge(0, 1);
  dag.add_edge(2, 3);
  const auto anc = dag.ancestors_of({1, 3});
  EXPECT_TRUE(anc[0]);
  EXPECT_TRUE(anc[2]);
  EXPECT_FALSE(anc[1]);
  EXPECT_FALSE(anc[3]);
}

TEST(Dag, SkeletonDropsOrientation) {
  Dag dag(3);
  dag.add_edge(0, 1);
  dag.add_edge(2, 1);
  const UndirectedGraph skeleton = dag.skeleton();
  EXPECT_TRUE(skeleton.has_edge(0, 1));
  EXPECT_TRUE(skeleton.has_edge(1, 2));
  EXPECT_EQ(skeleton.num_edges(), 2);
}

TEST(Dag, EdgesSorted) {
  Dag dag(4);
  dag.add_edge(2, 3);
  dag.add_edge(0, 1);
  dag.add_edge(0, 3);
  const auto edges = dag.edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (std::pair<VarId, VarId>{0, 1}));
  EXPECT_EQ(edges[1], (std::pair<VarId, VarId>{0, 3}));
  EXPECT_EQ(edges[2], (std::pair<VarId, VarId>{2, 3}));
}

TEST(Dag, EqualityComparesStructure) {
  Dag a(3), b(3);
  a.add_edge(0, 1);
  b.add_edge(0, 1);
  EXPECT_TRUE(a == b);
  b.add_edge(1, 2);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace fastbns
