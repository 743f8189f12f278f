#include "pc/edge_work.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "graph/dag.hpp"
#include "stats/oracle_test.hpp"

namespace fastbns {
namespace {

/// 5-node graph: 0-1, 0-2, 1-2, 2-3, 3-4.
UndirectedGraph small_graph() {
  UndirectedGraph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  return g;
}

TEST(BuildDepthWorks, DepthZeroGroupedHasOneTestPerEdge) {
  const auto works = build_depth_works(small_graph(), 0, true);
  ASSERT_EQ(works.size(), 5u);
  for (const EdgeWork& work : works) {
    EXPECT_EQ(work.total_tests(), 1u);
    EXPECT_EQ(work.progress, 0u);
    EXPECT_FALSE(work.removed);
  }
}

TEST(BuildDepthWorks, DepthZeroUngroupedHasTwoWorksPerEdge) {
  const auto works = build_depth_works(small_graph(), 0, false);
  ASSERT_EQ(works.size(), 10u);
  // Ordered directions alternate: (x,y) then (y,x).
  EXPECT_EQ(works[0].x, works[1].y);
  EXPECT_EQ(works[0].y, works[1].x);
}

TEST(BuildDepthWorks, DepthOneTotalsMatchAdjacency) {
  const auto works = build_depth_works(small_graph(), 1, true);
  // Edge (0,1): adj(0)\{1} = {2} -> C(1,1)=1; adj(1)\{0} = {2} -> 1.
  const EdgeWork& edge01 = works[0];
  EXPECT_EQ(edge01.x, 0);
  EXPECT_EQ(edge01.y, 1);
  EXPECT_EQ(edge01.total1, 1u);
  EXPECT_EQ(edge01.total2, 1u);
  // Edge (2,3): adj(2)\{3} = {0,1} -> C(2,1)=2; adj(3)\{2} = {4} -> 1.
  const EdgeWork& edge23 = works[3];
  EXPECT_EQ(edge23.x, 2);
  EXPECT_EQ(edge23.total1, 2u);
  EXPECT_EQ(edge23.total2, 1u);
}

TEST(BuildDepthWorks, DepthTwoSkipsUndersizedPools) {
  const auto works = build_depth_works(small_graph(), 2, true);
  // Edge (3,4): adj(3)\{4} = {2} (1 < 2) and adj(4)\{3} = {} -> 0 tests.
  const EdgeWork& edge34 = works[4];
  EXPECT_EQ(edge34.total_tests(), 0u);
}

TEST(ConditioningSetFor, MapsRankThroughBothDirections) {
  const auto works = build_depth_works(small_graph(), 1, true);
  const EdgeWork& edge23 = works[3];  // cand1={0,1}, cand2={4}
  std::vector<VarId> z;
  conditioning_set_for(edge23, 1, 0, z);
  EXPECT_EQ(z, (std::vector<VarId>{0}));
  conditioning_set_for(edge23, 1, 1, z);
  EXPECT_EQ(z, (std::vector<VarId>{1}));
  conditioning_set_for(edge23, 1, 2, z);  // second direction
  EXPECT_EQ(z, (std::vector<VarId>{4}));
}

TEST(ConditioningSetFor, DepthZeroIsEmpty) {
  const auto works = build_depth_works(small_graph(), 0, true);
  std::vector<VarId> z{99};
  conditioning_set_for(works[0], 0, 0, z);
  EXPECT_TRUE(z.empty());
}

/// Oracle over chain 0 -> 1 -> 2 -> 3 -> 4; at depth 1 the edge (0, 2)
/// separates given {1}.
Dag chain_dag() {
  Dag dag(5);
  for (VarId v = 0; v + 1 < 5; ++v) dag.add_edge(v, v + 1);
  return dag;
}

TEST(ProcessWorkTests, EarlyStopFindsFirstAcceptingSet) {
  const Dag dag = chain_dag();
  DSeparationOracle oracle(dag);
  UndirectedGraph g(5);
  g.add_edge(0, 2);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  auto works = build_depth_works(g, 1, true);
  EdgeWork* edge02 = nullptr;
  for (auto& work : works) {
    if (work.x == 0 && work.y == 2) edge02 = &work;
  }
  ASSERT_NE(edge02, nullptr);
  const std::int64_t executed = process_work_tests_early_stop(
      *edge02, 1, edge02->total_tests(), oracle, true);
  EXPECT_TRUE(edge02->removed);
  EXPECT_EQ(edge02->sepset, (std::vector<VarId>{1}));
  EXPECT_EQ(executed, 1);  // {1} is the first candidate in cand1
}

TEST(ProcessWorkTests, BatchRunsAllTestsEvenAfterAccept) {
  // The gs-group redundancy: the full batch executes even when an early
  // test accepts, but the lowest-rank accepting set still wins.
  const Dag dag = chain_dag();
  DSeparationOracle oracle(dag);
  UndirectedGraph g(5);
  g.add_edge(0, 2);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  auto works = build_depth_works(g, 1, true);
  EdgeWork* edge02 = nullptr;
  for (auto& work : works) {
    if (work.x == 0 && work.y == 2) edge02 = &work;
  }
  ASSERT_NE(edge02, nullptr);
  const std::uint64_t total = edge02->total_tests();
  const std::int64_t executed =
      process_work_tests(*edge02, 1, total, oracle, true);
  EXPECT_EQ(executed, static_cast<std::int64_t>(total));  // no early break
  EXPECT_TRUE(edge02->removed);
  EXPECT_EQ(edge02->sepset, (std::vector<VarId>{1}));
}

TEST(ProcessWorkTests, ProgressAdvancesAcrossBatches) {
  const Dag dag = chain_dag();
  DSeparationOracle oracle(dag);
  UndirectedGraph g = UndirectedGraph::complete(5);
  auto works = build_depth_works(g, 1, true);
  EdgeWork& work = works[0];
  const std::uint64_t total = work.total_tests();
  ASSERT_GT(total, 2u);
  process_work_tests(work, 1, 2, oracle, true);
  EXPECT_EQ(work.progress, 2u);
  process_work_tests(work, 1, 2, oracle, true);
  EXPECT_EQ(work.progress, std::min<std::uint64_t>(4, total));
}

TEST(ProcessWorkTests, FinishedWorkIsNoOp) {
  const Dag dag = chain_dag();
  DSeparationOracle oracle(dag);
  UndirectedGraph g(5);
  g.add_edge(0, 4);  // d-separated at depth 0? no: chain connects them.
  auto works = build_depth_works(g, 0, true);
  EdgeWork& work = works[0];
  process_work_tests(work, 0, 1, oracle, true);
  EXPECT_TRUE(work.finished());
  const std::int64_t executed = process_work_tests(work, 0, 1, oracle, true);
  EXPECT_EQ(executed, 0);
}

TEST(MaterializeConditioningSets, EnumeratesAllSetsInOrder) {
  const auto works = build_depth_works(small_graph(), 1, true);
  const EdgeWork& edge23 = works[3];  // totals 2 + 1
  const std::vector<VarId> flat = materialize_conditioning_sets(edge23, 1);
  EXPECT_EQ(flat, (std::vector<VarId>{0, 1, 4}));
}

TEST(MaterializeConditioningSets, LimitGuard) {
  UndirectedGraph g = UndirectedGraph::complete(40);
  const auto works = build_depth_works(g, 3, true);
  EXPECT_THROW(materialize_conditioning_sets(works[0], 3, /*limit=*/10),
               std::runtime_error);
}

TEST(VariableShards, ContiguousPartitionIsBalancedAndExhaustive) {
  // 10 variables over 3 shards: balanced ranges 4/3/3, every variable
  // owned by exactly one shard, ids ascending within a shard.
  const VariableShards shards(10, 3);
  EXPECT_EQ(shards.num_shards(), 3);
  EXPECT_EQ(shards.num_vars(), 10);
  std::vector<int> sizes(3, 0);
  std::int32_t previous = 0;
  for (VarId v = 0; v < 10; ++v) {
    const std::int32_t s = shards.shard_of(v);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 3);
    EXPECT_GE(s, previous) << "contiguous ranges must be monotone in id";
    previous = s;
    ++sizes[static_cast<std::size_t>(s)];
  }
  EXPECT_EQ(sizes, (std::vector<int>{4, 3, 3}));
}

TEST(VariableShards, MoreShardsThanVariablesLeavesTrailingShardsEmpty) {
  const VariableShards shards(3, 8);
  std::vector<int> sizes(8, 0);
  for (VarId v = 0; v < 3; ++v) {
    ++sizes[static_cast<std::size_t>(shards.shard_of(v))];
  }
  EXPECT_EQ(sizes[0] + sizes[1] + sizes[2], 3);
  for (std::size_t s = 3; s < 8; ++s) EXPECT_EQ(sizes[s], 0) << s;
}

TEST(VariableShards, RejectsNonPositiveShardCounts) {
  EXPECT_THROW(VariableShards(5, 0), std::invalid_argument);
  EXPECT_THROW(VariableShards(5, -2), std::invalid_argument);
}

TEST(ShardWorkIndices, GroupsByLowerEndpointAscendingAndKeepsTestlessWorks) {
  // small_graph edges: (0,1) (0,2) (1,2) (2,3) (3,4); at depth 1 the work
  // for (3,4) has pending tests via candidates of 3; every work lands in
  // the shard of its lower endpoint regardless of test counts.
  const auto works = build_depth_works(small_graph(), 1, true);
  ASSERT_EQ(works.size(), 5u);
  const VariableShards shards(5, 2);  // 0-2 | 3-4
  const auto by_shard = shard_work_indices(works, shards);
  ASSERT_EQ(by_shard.size(), 2u);
  std::size_t total = 0;
  for (std::size_t s = 0; s < by_shard.size(); ++s) {
    total += by_shard[s].size();
    EXPECT_TRUE(std::is_sorted(by_shard[s].begin(), by_shard[s].end())) << s;
    for (const std::int64_t index : by_shard[s]) {
      const EdgeWork& work = works[static_cast<std::size_t>(index)];
      EXPECT_EQ(shards.shard_of(std::min(work.x, work.y)),
                static_cast<std::int32_t>(s))
          << "work (" << work.x << ", " << work.y << ")";
    }
  }
  EXPECT_EQ(total, works.size());  // nothing dropped, nothing duplicated
  // Ungrouped lists put both directions of an edge in one shard: the
  // (4, 3) direction still belongs to the shard owning variable 3.
  const auto ungrouped = build_depth_works(small_graph(), 1, false);
  const auto ungrouped_by_shard = shard_work_indices(ungrouped, shards);
  for (const std::int64_t index : ungrouped_by_shard[1]) {
    const EdgeWork& work = ungrouped[static_cast<std::size_t>(index)];
    EXPECT_EQ(std::min(work.x, work.y), 3);
  }
}

}  // namespace
}  // namespace fastbns
