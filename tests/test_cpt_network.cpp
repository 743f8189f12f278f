#include <gtest/gtest.h>

#include <cmath>

#include "network/bayesian_network.hpp"

namespace fastbns {
namespace {

/// Collider network 0 -> 2 <- 1 with mixed cardinalities.
BayesianNetwork make_collider() {
  std::vector<Variable> variables(3);
  variables[0] = {"A", 2, {}};
  variables[1] = {"B", 3, {}};
  variables[2] = {"C", 2, {}};
  Dag dag(3);
  dag.add_edge(0, 2);
  dag.add_edge(1, 2);
  return BayesianNetwork(std::move(variables), std::move(dag));
}

TEST(Cpt, ParentConfigEncodingIsMixedRadix) {
  const BayesianNetwork network = make_collider();
  const Cpt& cpt = network.cpt(2);
  EXPECT_EQ(cpt.parents(), (std::vector<VarId>{0, 1}));
  EXPECT_EQ(cpt.num_parent_configs(), 6);  // 2 * 3
  std::vector<DataValue> assignment = {1, 2, 0};
  // Config = a * card(B) + b = 1*3 + 2 = 5.
  EXPECT_EQ(cpt.parent_config_from_assignment(assignment), 5);
  assignment = {0, 0, 0};
  EXPECT_EQ(cpt.parent_config_from_assignment(assignment), 0);
}

TEST(Cpt, UniformInitializationNormalized) {
  const BayesianNetwork network = make_collider();
  for (VarId v = 0; v < 3; ++v) {
    EXPECT_TRUE(network.cpt(v).rows_normalized());
    EXPECT_DOUBLE_EQ(network.cpt(v).probability(0, 0),
                     1.0 / network.variable(v).cardinality);
  }
}

TEST(Cpt, RandomizeProducesNormalizedNondegenerateRows) {
  BayesianNetwork network = make_collider();
  Rng rng(5);
  network.randomize_cpts(rng, 0.5);
  for (VarId v = 0; v < 3; ++v) {
    EXPECT_TRUE(network.cpt(v).rows_normalized());
  }
  // Rows should no longer all be uniform.
  bool any_nonuniform = false;
  const Cpt& cpt = network.cpt(2);
  for (std::int64_t config = 0; config < cpt.num_parent_configs(); ++config) {
    if (std::fabs(cpt.probability(config, 0) - 0.5) > 0.01) {
      any_nonuniform = true;
    }
  }
  EXPECT_TRUE(any_nonuniform);
}

TEST(Cpt, SampleFollowsRowDistribution) {
  BayesianNetwork network = make_collider();
  Cpt& cpt = network.mutable_cpt(0);
  cpt.set_probability(0, 0, 0.2);
  cpt.set_probability(0, 1, 0.8);
  Rng rng(7);
  int ones = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    ones += cpt.sample(rng, 0);
  }
  EXPECT_NEAR(ones / double(kN), 0.8, 0.02);
}

TEST(BayesianNetwork, AccessorsAndNames) {
  const BayesianNetwork network = make_collider();
  EXPECT_EQ(network.num_nodes(), 3);
  EXPECT_EQ(network.num_edges(), 2);
  EXPECT_EQ(network.variable_names(),
            (std::vector<std::string>{"A", "B", "C"}));
  EXPECT_EQ(network.cardinalities(), (std::vector<std::int32_t>{2, 3, 2}));
  EXPECT_EQ(network.index_of("B"), 1);
  EXPECT_EQ(network.index_of("missing"), kInvalidVar);
}

TEST(BayesianNetwork, ValidAfterConstructionAndRandomization) {
  BayesianNetwork network = make_collider();
  EXPECT_TRUE(network.valid());
  Rng rng(9);
  network.randomize_cpts(rng, 1.0);
  EXPECT_TRUE(network.valid());
}

TEST(BayesianNetwork, InvalidWhenRowDenormalized) {
  BayesianNetwork network = make_collider();
  network.mutable_cpt(0).set_probability(0, 0, 0.9);  // row sums to 1.4
  EXPECT_FALSE(network.valid());
}

}  // namespace
}  // namespace fastbns
