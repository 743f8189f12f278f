// Cross-module integration: the full user journey — define a network in
// BIF, sample it, persist to CSV, reload, learn the CPDAG, and check its
// skeleton against the generating network — all through public APIs.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/rng.hpp"
#include "dataset/dataset_io.hpp"
#include "graph/graph_metrics.hpp"
#include "network/bif_parser.hpp"
#include "network/forward_sampler.hpp"
#include "network/standard_networks.hpp"
#include "pc/pc_stable.hpp"

namespace fastbns {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "fastbns_pipeline";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(PipelineTest, BifToCsvToLearnedCpdag) {
  // 1. Ship the ALARM network as BIF and read it back.
  const BayesianNetwork alarm = alarm_network();
  const std::string bif_path = (dir_ / "alarm.bif").string();
  ASSERT_TRUE(save_bif(alarm, bif_path));
  const BayesianNetwork reloaded = load_bif(bif_path);
  ASSERT_TRUE(reloaded.dag() == alarm.dag());

  // 2. Sample records and persist them as CSV.
  Rng rng(41);
  const DiscreteDataset sampled = forward_sample(reloaded, 3000, rng);
  const std::string csv_path = (dir_ / "records.csv").string();
  ASSERT_TRUE(save_csv(sampled, reloaded.variable_names(), csv_path));

  // 3. Reload the CSV with explicit cardinalities (inference from data
  //    may underestimate a never-observed state).
  const NamedDataset records =
      load_csv(csv_path, DataLayout::kColumnMajor, reloaded.cardinalities());
  ASSERT_EQ(records.data.num_samples(), 3000);
  ASSERT_EQ(records.names, reloaded.variable_names());

  // 4. Learn the structure and check quality.
  PcOptions options;
  options.engine = EngineKind::kCiParallel;
  options.num_threads = 2;
  options.group_size = 6;
  const PcStableResult learned = learn_structure(records.data, options);
  const SkeletonMetrics metrics =
      compare_skeletons(learned.skeleton.graph, alarm.dag().skeleton());
  EXPECT_GT(metrics.f1(), 0.8);
}

TEST_F(PipelineTest, CsvRoundTripPreservesLearnedStructure) {
  const BayesianNetwork network = alarm_network();
  Rng rng(43);
  const DiscreteDataset original = forward_sample(network, 1200, rng);
  const std::string path = (dir_ / "roundtrip.csv").string();
  ASSERT_TRUE(save_csv(original, network.variable_names(), path));
  const NamedDataset reloaded =
      load_csv(path, DataLayout::kColumnMajor, network.cardinalities());

  const PcStableResult from_original = learn_structure(original, {});
  const PcStableResult from_reloaded = learn_structure(reloaded.data, {});
  EXPECT_TRUE(from_original.cpdag == from_reloaded.cpdag);
}

TEST_F(PipelineTest, RecoversTrueSkeletonOfStrongChain) {
  // PC-stable must find the generating skeleton on clean, well-sampled
  // data from a small network.
  const BayesianNetwork sprinkler = parse_bif_string(R"(
network s { }
variable A { type discrete [ 2 ] { a0, a1 }; }
variable B { type discrete [ 2 ] { b0, b1 }; }
variable C { type discrete [ 2 ] { c0, c1 }; }
probability ( A ) { table 0.4, 0.6; }
probability ( B | A ) { (a0) 0.9, 0.1; (a1) 0.15, 0.85; }
probability ( C | B ) { (b0) 0.85, 0.15; (b1) 0.1, 0.9; }
)");
  Rng rng(47);
  DiscreteDataset data = forward_sample(sprinkler, 4000, rng);
  const PcStableResult constraint = learn_structure(data, {});
  EXPECT_TRUE(constraint.skeleton.graph == sprinkler.dag().skeleton());
}

}  // namespace
}  // namespace fastbns
