// ThreadLocalTests / ClonePoolEngine contract: clones are built lazily,
// reused across the depths of one run, keyed on the prototype's address
// plus its configuration fingerprint (a reconfigured prototype at a
// recycled address re-clones), and still dropped between runs — an
// identically-configured new prototype at a recycled address is
// indistinguishable by design and the old clones carry stale counters.
// Also home of the sequential depth runner's pair-skip contract.
#include "engine/engine_common.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/dag.hpp"
#include "stats/discrete_ci_test.hpp"
#include "stats/oracle_test.hpp"

namespace fastbns {
namespace {

DiscreteDataset tiny_dataset() {
  DiscreteDataset data(3, 50, {2, 2, 2}, DataLayout::kBoth);
  Rng rng(3);
  for (Count s = 0; s < 50; ++s) {
    for (VarId v = 0; v < 3; ++v) {
      data.set(s, v, static_cast<DataValue>(rng.next_below(2)));
    }
  }
  return data;
}

double clone_alpha(const CiTest* clone) {
  const auto* discrete = dynamic_cast<const DiscreteCiTest*>(clone);
  return discrete == nullptr ? -1.0 : discrete->options().alpha;
}

TEST(ThreadLocalTests, ReusesClonesAcrossDepthsOfOneRun) {
  const DiscreteDataset data = tiny_dataset();
  const DiscreteCiTest prototype(data, {});
  ThreadLocalTests cache;

  auto& first = cache.acquire(prototype, 3);
  ASSERT_EQ(first.size(), 3u);
  std::vector<CiTest*> pointers;
  for (const auto& clone : first) pointers.push_back(clone.get());

  // Depth 2, 3, ... of the same run: same prototype, same count — the
  // cached clones (and their warm workspaces) come back untouched.
  auto& second = cache.acquire(prototype, 3);
  ASSERT_EQ(second.size(), 3u);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(second[t].get(), pointers[t]) << t;
  }
}

TEST(ThreadLocalTests, RebuildsWhenTheThreadCountChanges) {
  const DiscreteDataset data = tiny_dataset();
  const DiscreteCiTest prototype(data, {});
  ThreadLocalTests cache;
  cache.acquire(prototype, 2);
  auto& grown = cache.acquire(prototype, 4);
  EXPECT_EQ(grown.size(), 4u);
  for (const auto& clone : grown) {
    EXPECT_NE(clone, nullptr);
  }
}

TEST(ThreadLocalTests, ResetDropsClonesBetweenRuns) {
  const DiscreteDataset data = tiny_dataset();
  const DiscreteCiTest prototype(data, {});
  ThreadLocalTests cache;
  CiTest* stale = cache.acquire(prototype, 1).front().get();
  stale->test(0, 1, {});
  EXPECT_EQ(stale->tests_performed(), 1);

  cache.reset();
  CiTest* fresh = cache.acquire(prototype, 1).front().get();
  // A fresh clone carries no state from the previous run.
  EXPECT_EQ(fresh->tests_performed(), 0);
}

TEST(ThreadLocalTests, ReconfiguredPrototypeAtRecycledAddressRebuilds) {
  const DiscreteDataset data = tiny_dataset();
  // std::optional guarantees the recycled-address scenario: every
  // emplace constructs the new prototype in the same storage. The cache
  // keys on the configuration fingerprint (CiTest::config_token), so a
  // *reconfigured* prototype at the same address must re-clone even
  // without a reset() in between — the address alone proves nothing.
  std::optional<DiscreteCiTest> slot;
  CiTestOptions first_options;
  first_options.alpha = 0.01;
  slot.emplace(data, first_options);
  ThreadLocalTests cache;
  EXPECT_EQ(clone_alpha(cache.acquire(*slot, 1).front().get()), 0.01);

  CiTestOptions second_options;
  second_options.alpha = 0.2;
  slot.emplace(data, second_options);
  EXPECT_EQ(clone_alpha(cache.acquire(*slot, 1).front().get()), 0.2);
}

TEST(ThreadLocalTests, ChangedTableBuilderAtRecycledAddressRebuilds) {
  const DiscreteDataset data = tiny_dataset();
  // The learn_structure scenario from review: two calls whose prototypes
  // differ only in the selected TableBuilder kernel, with the second
  // constructed at the first's recycled address. Stale clones would
  // silently keep counting through the previous kernel.
  std::optional<DiscreteCiTest> slot;
  CiTestOptions first_options;
  first_options.table_builder = "scalar";
  slot.emplace(data, first_options);
  ThreadLocalTests cache;
  EXPECT_EQ(cache.acquire(*slot, 1).front()->table_builder_name(), "scalar");

  CiTestOptions second_options;
  second_options.table_builder = "batched";
  slot.emplace(data, second_options);
  EXPECT_EQ(cache.acquire(*slot, 1).front()->table_builder_name(), "batched");
}

TEST(ThreadLocalTests, RuntimeSampleParallelRetargetIsCloneVisible) {
  const DiscreteDataset data = tiny_dataset();
  // set_sample_parallel is a clone-visible runtime knob (clones inherit
  // the build mode), so retargeting the prototype must change its
  // fingerprint and rebuild the pool.
  DiscreteCiTest prototype(data, {});
  ThreadLocalTests cache;
  EXPECT_FALSE(cache.acquire(prototype, 1).front()->sample_parallel_build());
  prototype.set_sample_parallel(true);
  EXPECT_TRUE(cache.acquire(prototype, 1).front()->sample_parallel_build());
}

TEST(ThreadLocalTests, SameConfigRecycledAddressIsWhyResetStaysMandatory) {
  const DiscreteDataset data = tiny_dataset();
  // An identically-configured new prototype at a recycled address is
  // indistinguishable by design (same address, same fingerprint) — the
  // cached clones still carry the previous run's counters, which is why
  // ClonePoolEngine::prepare_run still wires the driver's run-start hook
  // to reset().
  std::optional<DiscreteCiTest> slot;
  slot.emplace(data, CiTestOptions{});
  ThreadLocalTests cache;
  CiTest* stale = cache.acquire(*slot, 1).front().get();
  stale->test(0, 1, {});
  EXPECT_EQ(stale->tests_performed(), 1);

  slot.emplace(data, CiTestOptions{});
  EXPECT_EQ(cache.acquire(*slot, 1).front()->tests_performed(), 1);
  cache.reset();
  EXPECT_EQ(cache.acquire(*slot, 1).front()->tests_performed(), 0);
}

EdgeWork marginal_work(VarId x, VarId y) {
  EdgeWork work;
  work.x = x;
  work.y = y;
  work.total1 = 1;  // depth-0: one marginal test
  return work;
}

TEST(RunSequentialDepth, PairSkipMatchesPartnerByIdsNotLayout) {
  // DAG: 0 and 1 disconnected (marginally independent), 2 -> 3
  // (dependent). An ungrouped work list that is NOT the strict
  // (x,y),(y,x) adjacent-pair layout — e.g. after filtering or
  // reordering — must still test every edge: the old skip keyed on "odd
  // index and predecessor removed", which here would silently skip the
  // unrelated edge (2, 3) after (0, 1) is removed.
  Dag dag(4);
  dag.add_edge(2, 3);
  DSeparationOracle oracle(dag);
  std::vector<EdgeWork> works;
  works.push_back(marginal_work(0, 1));
  works.push_back(marginal_work(2, 3));
  const std::int64_t tests =
      run_sequential_depth(works, /*depth=*/0, oracle, /*grouped=*/false,
                           /*materialized=*/false,
                           /*use_group_protocol=*/false);
  EXPECT_TRUE(works[0].removed);
  EXPECT_EQ(tests, 2);  // the unrelated second work ran
  EXPECT_EQ(works[1].progress, 1u);
  EXPECT_FALSE(works[1].removed);
}

TEST(RunSequentialDepth, PairSkipStillSkipsTheTruePartner) {
  // The classic optimization itself must survive the id-matched check:
  // (1, 0) is skipped once (0, 1) removed the edge within the depth.
  Dag dag(2);  // no edges: 0 and 1 independent
  DSeparationOracle oracle(dag);
  std::vector<EdgeWork> works;
  works.push_back(marginal_work(0, 1));
  works.push_back(marginal_work(1, 0));
  const std::int64_t tests =
      run_sequential_depth(works, /*depth=*/0, oracle, /*grouped=*/false,
                           /*materialized=*/false,
                           /*use_group_protocol=*/false);
  EXPECT_TRUE(works[0].removed);
  EXPECT_EQ(tests, 1);  // the reverse direction never ran
  EXPECT_EQ(works[1].progress, 0u);
}

class ProbePoolEngine final : public ClonePoolEngine {
 public:
  CiTest* acquire_one(const CiTest& prototype) {
    return tests_.acquire(prototype, 1).front().get();
  }
  std::int64_t run_depth(std::vector<EdgeWork>&, std::int32_t, const CiTest&,
                         const PcOptions&) override {
    return 0;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "probe";
  }
};

TEST(ClonePoolEngine, PrepareRunResetsTheCloneCache) {
  const DiscreteDataset data = tiny_dataset();
  std::optional<DiscreteCiTest> slot;
  CiTestOptions first_options;
  first_options.alpha = 0.01;
  slot.emplace(data, first_options);
  ProbePoolEngine engine;
  engine.prepare_run();
  EXPECT_EQ(clone_alpha(engine.acquire_one(*slot)), 0.01);

  // A second run whose prototype landed at the recycled address: the
  // driver's prepare_run call is what keeps the engine correct.
  CiTestOptions second_options;
  second_options.alpha = 0.2;
  slot.emplace(data, second_options);
  engine.prepare_run();
  EXPECT_EQ(clone_alpha(engine.acquire_one(*slot)), 0.2);
}

}  // namespace
}  // namespace fastbns
