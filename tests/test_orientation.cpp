#include "pc/orientation.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/dag.hpp"
#include "graph/graph_metrics.hpp"
#include "pc/skeleton.hpp"
#include "stats/oracle_test.hpp"

namespace fastbns {
namespace {

TEST(OrientVStructures, ColliderOriented) {
  // Skeleton 0 - 1 - 2 with sepset(0, 2) = {} (not containing 1).
  UndirectedGraph skeleton(3);
  skeleton.add_edge(0, 1);
  skeleton.add_edge(1, 2);
  SepsetStore sepsets;
  sepsets.set(0, 2, {});
  Pdag pdag = Pdag::from_skeleton(skeleton);
  const std::int64_t count = orient_v_structures(pdag, sepsets);
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(pdag.has_directed(0, 1));
  EXPECT_TRUE(pdag.has_directed(2, 1));
}

TEST(OrientVStructures, EmptySepsetIsRecordedNotMissing) {
  // Depth-0 removals record an *empty* sepset (engine_common's depth-0
  // branch clears work.sepset on acceptance). The orientation phase must
  // read that as "recorded, and the middle node is not in it" — the
  // v-structure fires — and never conflate it with "no sepset found",
  // which (unseparated pair) suppresses the collider.
  UndirectedGraph skeleton(3);
  skeleton.add_edge(0, 1);
  skeleton.add_edge(1, 2);

  SepsetStore recorded_empty;
  recorded_empty.set(0, 2, {});  // what a depth-0 removal commits
  ASSERT_NE(recorded_empty.find(0, 2), nullptr);  // recorded...
  EXPECT_TRUE(recorded_empty.find(0, 2)->empty());  // ...and empty
  EXPECT_FALSE(recorded_empty.separates_with(0, 2, 1));
  Pdag with_empty = Pdag::from_skeleton(skeleton);
  EXPECT_EQ(orient_v_structures(with_empty, recorded_empty), 1);
  EXPECT_TRUE(with_empty.has_directed(0, 1));
  EXPECT_TRUE(with_empty.has_directed(2, 1));

  // The contrast: the store itself must keep "never separated" (nullptr)
  // distinguishable from "recorded, empty" — the orientation rule reads
  // both through separates_with (every non-adjacent PC pair has a
  // record, so the distinction never decides a collider there), but
  // consumers that branch on whether a pair *was* separated (the engine
  // equivalence and fuzz suites' sepset diffing) rely on find() telling
  // them apart.
  SepsetStore missing;
  EXPECT_EQ(missing.find(0, 2), nullptr);
  EXPECT_FALSE(missing.separates_with(0, 2, 1));
}

TEST(OraclePipeline, DepthZeroRemovalCommitsEmptySepsetAndOrientsCollider) {
  // End to end through the engines: 0 -> 2 <- 1 makes 0 and 1 marginally
  // independent, so the 0-1 edge is removed at depth 0 and the committed
  // sepset must be the recorded-empty set — which is exactly what lets
  // the collider orient.
  Dag dag(3);
  dag.add_edge(0, 2);
  dag.add_edge(1, 2);
  DSeparationOracle oracle(dag);
  for (const EngineKind engine :
       {EngineKind::kFastSequential, EngineKind::kCiParallel}) {
    PcOptions options;
    options.engine = engine;
    const SkeletonResult skeleton = learn_skeleton(3, oracle, options);
    const auto* sepset = skeleton.sepsets.find(0, 1);
    ASSERT_NE(sepset, nullptr);    // recorded — not "no sepset found"
    EXPECT_TRUE(sepset->empty());  // and empty
    const Pdag pdag = orient_skeleton(skeleton.graph, skeleton.sepsets);
    EXPECT_TRUE(pdag.has_directed(0, 2));
    EXPECT_TRUE(pdag.has_directed(1, 2));
  }
}

TEST(OrientVStructures, NoColliderWhenSepsetContainsMiddle) {
  UndirectedGraph skeleton(3);
  skeleton.add_edge(0, 1);
  skeleton.add_edge(1, 2);
  SepsetStore sepsets;
  sepsets.set(0, 2, {1});  // chain/fork evidence
  Pdag pdag = Pdag::from_skeleton(skeleton);
  EXPECT_EQ(orient_v_structures(pdag, sepsets), 0);
  EXPECT_EQ(pdag.num_directed_edges(), 0);
}

TEST(OrientVStructures, ShieldedTripleIgnored) {
  UndirectedGraph skeleton = UndirectedGraph::complete(3);
  SepsetStore sepsets;  // no pair separated
  Pdag pdag = Pdag::from_skeleton(skeleton);
  EXPECT_EQ(orient_v_structures(pdag, sepsets), 0);
}

TEST(OrientVStructures, ConflictKeepsFirstOrientation) {
  // Two overlapping v-structures sharing the arm 1 - 2:
  // 0 - 2 - 1 (sepset(0,1) = {}) and 1 - 2 - 3 would both orient into 2.
  UndirectedGraph skeleton(4);
  skeleton.add_edge(0, 2);
  skeleton.add_edge(1, 2);
  skeleton.add_edge(2, 3);
  SepsetStore sepsets;
  sepsets.set(0, 1, {});
  sepsets.set(1, 3, {});
  sepsets.set(0, 3, {});
  Pdag pdag = Pdag::from_skeleton(skeleton);
  orient_v_structures(pdag, sepsets);
  // All three arms point into 2; no undirected edge survives at node 2.
  EXPECT_TRUE(pdag.has_directed(0, 2));
  EXPECT_TRUE(pdag.has_directed(1, 2));
  EXPECT_TRUE(pdag.has_directed(3, 2));
  EXPECT_FALSE(pdag.has_directed_cycle());
}

TEST(OrientSkeleton, FullPipelineOnCollider) {
  UndirectedGraph skeleton(3);
  skeleton.add_edge(0, 1);
  skeleton.add_edge(1, 2);
  SepsetStore sepsets;
  sepsets.set(0, 2, {});
  OrientationStats stats;
  const Pdag pdag = orient_skeleton(skeleton, sepsets, &stats);
  EXPECT_EQ(stats.v_structures, 1);
  EXPECT_TRUE(pdag.has_directed(0, 1));
  EXPECT_TRUE(pdag.has_directed(2, 1));
}

TEST(OrientSkeleton, MeekCascadeAfterVStructure) {
  // 0 - 2 - 1 collider plus tail 2 - 3: R1 orients 2 -> 3.
  UndirectedGraph skeleton(4);
  skeleton.add_edge(0, 2);
  skeleton.add_edge(1, 2);
  skeleton.add_edge(2, 3);
  SepsetStore sepsets;
  sepsets.set(0, 1, {});
  sepsets.set(0, 3, {2});
  sepsets.set(1, 3, {2});
  OrientationStats stats;
  const Pdag pdag = orient_skeleton(skeleton, sepsets, &stats);
  EXPECT_TRUE(pdag.has_directed(2, 3));
  EXPECT_GE(stats.meek.r1, 1);
}

/// End-to-end pipeline property: with the d-separation oracle, skeleton +
/// orientation must reproduce exactly cpdag_of_dag(truth).
void expect_oracle_pipeline_exact(const Dag& dag, EngineKind engine) {
  DSeparationOracle oracle(dag);
  PcOptions options;
  options.engine = engine;
  options.num_threads = 2;
  const SkeletonResult skeleton =
      learn_skeleton(dag.num_nodes(), oracle, options);
  const Pdag learned = orient_skeleton(skeleton.graph, skeleton.sepsets);
  const Pdag truth = cpdag_of_dag(dag);
  EXPECT_EQ(structural_hamming_distance(learned, truth), 0);
  EXPECT_TRUE(learned == truth);
}

TEST(OraclePipeline, ExactCpdagOnChain) {
  Dag dag(5);
  for (VarId v = 0; v + 1 < 5; ++v) dag.add_edge(v, v + 1);
  expect_oracle_pipeline_exact(dag, EngineKind::kFastSequential);
}

TEST(OraclePipeline, ExactCpdagOnColliderTree) {
  Dag dag(6);
  dag.add_edge(0, 2);
  dag.add_edge(1, 2);
  dag.add_edge(2, 3);
  dag.add_edge(4, 5);
  expect_oracle_pipeline_exact(dag, EngineKind::kFastSequential);
  expect_oracle_pipeline_exact(dag, EngineKind::kCiParallel);
}

class OracleRandomDags : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleRandomDags, PipelineRecoversExactCpdag) {
  // Random sparse DAGs: the oracle pipeline must recover the pattern
  // exactly for every engine — the strongest end-to-end property we have.
  Rng rng(GetParam());
  Dag dag(12);
  for (VarId u = 0; u < 12; ++u) {
    for (VarId v = u + 1; v < 12; ++v) {
      if (rng.next_double() < 0.18) dag.add_edge_unchecked(u, v);
    }
  }
  expect_oracle_pipeline_exact(dag, EngineKind::kFastSequential);
  expect_oracle_pipeline_exact(dag, EngineKind::kNaiveSequential);
  expect_oracle_pipeline_exact(dag, EngineKind::kCiParallel);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleRandomDags,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           9u, 10u, 11u, 12u));

}  // namespace
}  // namespace fastbns
