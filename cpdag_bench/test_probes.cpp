// The benchmark's probes must be invisible to the library: a learn through
// TracedCiTest + TimedEngine returns the same CPDAG and runs the same CI
// tests as learn_structure, and every virtual reaches the wrapped object.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/engine_registry.hpp"
#include "network/forward_sampler.hpp"
#include "network/linear_gaussian.hpp"
#include "network/standard_networks.hpp"
#include "pc/pc_stable.hpp"
#include "probes.hpp"

namespace cpdag_bench {
namespace {

using fastbns::Dataset;
using fastbns::PcOptions;

Dataset discrete_sample() {
  const fastbns::BayesianNetwork network = fastbns::alarm_network();
  fastbns::Rng rng(7);
  return Dataset(fastbns::forward_sample(network, 2000, rng));
}

Dataset gaussian_sample() {
  const fastbns::BayesianNetwork network = fastbns::alarm_network();
  fastbns::Rng rng(11);
  const fastbns::LinearGaussianSem sem =
      fastbns::random_linear_gaussian_sem(network.dag(), rng);
  return Dataset(fastbns::sample_linear_gaussian(sem, 2000, rng));
}

PcOptions options_for(const std::string& engine) {
  PcOptions options;
  options.engine_name = engine;
  options.num_threads = 2;
  options.rank_count = 2;
  options.rank_threads = 1;
  options.ipc_transport = "pipe";
  return options;
}

void expect_probes_transparent(const Dataset& data, const std::string& name) {
  SCOPED_TRACE(name);
  const PcOptions options = options_for(name);
  const fastbns::PcStableResult plain = fastbns::learn_structure(data, options);

  SlotTable slots;
  TupleLog log;
  const auto engine = fastbns::EngineRegistry::instance().create(options);
  const ProbedLearn probed = probed_learn(data, options, *engine, slots, &log);

  EXPECT_EQ(cpdag_digest(probed.cpdag), cpdag_digest(plain.cpdag));
  EXPECT_TRUE(probed.cpdag == plain.cpdag);
  EXPECT_EQ(probed.skeleton.total_ci_tests, plain.skeleton.total_ci_tests);
  EXPECT_EQ(probed.depths.size(), plain.skeleton.depth_stats.size());

  // The slot table sees every test, also from forked ranks.
  std::int64_t slot_tests = 0;
  for (int slot = 0; slot < slots.slots_used(); ++slot) {
    for (int depth = 0; depth < SlotTable::kDepths; ++depth) {
      slot_tests += slots.tests(slot, depth);
    }
  }
  EXPECT_EQ(slot_tests, plain.skeleton.total_ci_tests);

  // In-process clones record one tuple per test.
  const auto* info = fastbns::EngineRegistry::instance().find(name);
  ASSERT_NE(info, nullptr);
  if (info->kind != fastbns::EngineKind::kProcess) {
    std::int64_t recorded = 0;
    for (const std::vector<VarId>& records : log.per_slot()) {
      for (std::size_t i = 0; i < records.size();
           i += 3 + static_cast<std::size_t>(records[i + 2])) {
        ++recorded;
      }
    }
    EXPECT_EQ(recorded, plain.skeleton.total_ci_tests);
  }
}

TEST(Probes, DiscreteLearnIsUnchanged) {
  const Dataset data = discrete_sample();
  for (const char* name : {"fastbns-seq", "fastbns-par(ci-level)",
                           "process(rank-partition)", "async(depth-overlap)"}) {
    expect_probes_transparent(data, name);
  }
}

TEST(Probes, GaussianLearnIsUnchanged) {
  const Dataset data = gaussian_sample();
  for (const char* name : {"fastbns-seq", "fastbns-par(ci-level)",
                           "process(rank-partition)"}) {
    expect_probes_transparent(data, name);
  }
}

/// Records which virtuals reached it.
class SpyTest final : public fastbns::CiTest {
 public:
  explicit SpyTest(std::vector<std::string>* calls) : calls_(calls) {}
  fastbns::CiResult test(VarId, VarId, std::span<const VarId>) override {
    calls_->push_back("test");
    ++tests_performed_;
    return {};
  }
  void begin_group(VarId x, VarId y) override {
    calls_->push_back("begin_group");
    CiTest::begin_group(x, y);
  }
  fastbns::CiResult test_in_group(std::span<const VarId>) override {
    calls_->push_back("test_in_group");
    ++tests_performed_;
    return {};
  }
  void test_batch_in_group(std::span<const VarId>, std::int32_t,
                           std::span<fastbns::CiResult> results) override {
    calls_->push_back("test_batch_in_group");
    tests_performed_ += static_cast<std::int64_t>(results.size());
  }
  bool set_sample_parallel(bool enabled) override {
    calls_->push_back(enabled ? "set_sample_parallel(1)" : "set_sample_parallel(0)");
    return true;
  }
  [[nodiscard]] std::uint64_t config_token() const noexcept override {
    return 0xC0FFEE;
  }
  [[nodiscard]] std::unique_ptr<CiTest> clone() const override {
    calls_->push_back("clone");
    return std::make_unique<SpyTest>(calls_);
  }

 private:
  std::vector<std::string>* calls_;
};

TEST(Probes, CiTestWrapperForwardsEveryCall) {
  std::vector<std::string> calls;
  SlotTable slots;
  TracedCiTest traced(std::make_unique<SpyTest>(&calls), slots);
  EXPECT_EQ(traced.config_token(), 0xC0FFEEU);
  EXPECT_TRUE(traced.set_sample_parallel(true));
  const std::unique_ptr<fastbns::CiTest> copy = traced.clone();
  EXPECT_EQ(copy->config_token(), 0xC0FFEEU);
  const std::vector<VarId> z = {2, 3};
  (void)copy->test(0, 1, z);
  copy->begin_group(0, 1);
  (void)copy->test_in_group(z);
  std::vector<fastbns::CiResult> results(1);
  copy->test_batch_in_group(z, 2, results);
  EXPECT_EQ(copy->tests_performed(), 3);
  EXPECT_EQ(calls, (std::vector<std::string>{
                       "set_sample_parallel(1)", "clone", "test", "begin_group",
                       "test_in_group", "test_batch_in_group"}));
  ASSERT_EQ(slots.slots_used(), 1);
  EXPECT_EQ(slots.tests(0, 2), 3);
}

/// Engine stub answering the forwarded queries distinctively.
class SpyEngine final : public fastbns::SkeletonEngine {
 public:
  std::int64_t run_depth(std::vector<fastbns::EdgeWork>&, std::int32_t,
                         const fastbns::CiTest&, const PcOptions&) override {
    return 42;
  }
  bool take_prepared_depth_works(std::int32_t depth,
                                 const fastbns::UndirectedGraph&, bool,
                                 std::vector<fastbns::EdgeWork>&) override {
    return depth == 3;
  }
  [[nodiscard]] std::string_view name() const noexcept override { return "spy"; }
  [[nodiscard]] bool supports_endpoint_grouping() const noexcept override {
    return false;
  }
  [[nodiscard]] bool wants_sample_parallel_test() const noexcept override {
    return true;
  }
};

TEST(Probes, EngineWrapperForwardsEveryCall) {
  SpyEngine spy;
  TimedEngine timed(spy);
  EXPECT_EQ(timed.name(), "spy");
  EXPECT_FALSE(timed.supports_endpoint_grouping());
  EXPECT_TRUE(timed.wants_sample_parallel_test());
  EXPECT_TRUE(timed.uses_sample_parallel_builds());
  std::vector<fastbns::EdgeWork> works;
  const fastbns::UndirectedGraph graph(4);
  EXPECT_TRUE(timed.take_prepared_depth_works(3, graph, true, works));
  EXPECT_FALSE(timed.take_prepared_depth_works(2, graph, true, works));
  std::vector<std::string> calls;
  const SpyTest test(&calls);
  timed.prepare_run();
  EXPECT_EQ(timed.run_depth(works, 1, test, PcOptions{}), 42);
  ASSERT_EQ(timed.spans().size(), 1U);
  EXPECT_EQ(timed.spans()[0].tests, 42);
  EXPECT_LE(timed.spans()[0].start_s, timed.spans()[0].end_s);
}

}  // namespace
}  // namespace cpdag_bench
