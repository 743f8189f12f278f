// The library's central property: every registered skeleton engine — at any
// thread count and any group size — produces the identical skeleton and
// separating sets, because PC-stable is order-independent and the engines
// share one canonical test order. This is what lets the paper claim
// "the accuracy of Fast-BNS is exactly the same as the other PC-stable
// implementations" and skip accuracy results entirely.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "dataset/dataset.hpp"
#include "engine/engine_registry.hpp"
#include "engine/skeleton_engine.hpp"
#include "network/forward_sampler.hpp"
#include "network/linear_gaussian.hpp"
#include "network/random_network.hpp"
#include "network/standard_networks.hpp"
#include "pc/pc_stable.hpp"
#include "pc/skeleton.hpp"
#include "stats/discrete_ci_test.hpp"
#include "stats/oracle_test.hpp"

namespace fastbns {
namespace {

struct Fixture {
  BayesianNetwork network;
  DiscreteDataset data;
};

const Fixture& fixture() {
  static const Fixture instance = [] {
    RandomNetworkConfig config;
    config.num_nodes = 24;
    config.num_edges = 32;
    config.seed = 77;
    BayesianNetwork network = generate_random_network(config);
    Rng rng(78);
    DiscreteDataset data =
        forward_sample(network, 1200, rng, DataLayout::kBoth);
    return Fixture{std::move(network), std::move(data)};
  }();
  return instance;
}

SkeletonResult reference_result() {
  PcOptions options;
  options.engine = EngineKind::kFastSequential;
  const DiscreteCiTest test(fixture().data, {});
  return learn_skeleton(fixture().data.num_vars(), test, options);
}

/// (canonical engine name, threads, group size). Naming engines by their
/// registry string (resolved back through engine_from_string inside the
/// test) keeps the suite honest about the round-trip and automatically
/// enrolls every future registered backend.
using EngineThreadsGs = std::tuple<std::string, int, std::int32_t>;

/// Registry-driven parameter grid: every registered engine runs at a
/// small thread/gs grid; the CI-level engine additionally sweeps the
/// group sizes the paper's Figure 4 studies.
std::vector<EngineThreadsGs> registry_param_grid() {
  std::vector<EngineThreadsGs> params;
  for (const std::string& name : list_engines()) {
    params.emplace_back(name, 1, 1);
    params.emplace_back(name, 2, 1);
    params.emplace_back(name, 4, 4);
  }
  // The pool races claims and push-backs across threads, so sweep it
  // across thread counts too (different races, same result). threads = 0
  // keeps the OpenMP runtime default, which is what lets the CI
  // workflow's OMP_NUM_THREADS=1/2/nproc sweep actually vary the
  // concurrency these configurations run at — every pinned thread count
  // overrides the environment.
  for (const auto& [threads, gs] :
       {std::pair<int, std::int32_t>{2, 4}, {4, 6}, {3, 8}, {2, 16}, {2, 8},
        {3, 4}, {4, 16}, {0, 1}, {0, 8}}) {
    params.emplace_back("fastbns-par(ci-level)", threads, gs);
  }
  return params;
}

class EngineEquivalence : public ::testing::TestWithParam<EngineThreadsGs> {};

TEST_P(EngineEquivalence, SkeletonAndSepsetsMatchReference) {
  const auto [engine_name, threads, gs] = GetParam();
  PcOptions options;
  options.engine = engine_from_string(engine_name);
  options.engine_name = engine_name;  // by-name path: kind-sharing
                                      // backends run themselves
  options.num_threads = threads;
  options.group_size = gs;

  CiTestOptions test_options;
  test_options.sample_parallel =
      EngineRegistry::instance().find(engine_name)->sample_parallel_test;
  const DiscreteCiTest test(fixture().data, test_options);
  const SkeletonResult result =
      learn_skeleton(fixture().data.num_vars(), test, options);

  static const SkeletonResult reference = reference_result();
  EXPECT_TRUE(result.graph == reference.graph)
      << "engine=" << engine_name << " t=" << threads << " gs=" << gs;

  // Sepsets must match pair by pair.
  const VarId n = fixture().data.num_vars();
  for (VarId u = 0; u < n; ++u) {
    for (VarId v = u + 1; v < n; ++v) {
      const auto* expected = reference.sepsets.find(u, v);
      const auto* actual = result.sepsets.find(u, v);
      ASSERT_EQ(expected == nullptr, actual == nullptr) << u << "," << v;
      if (expected != nullptr) {
        EXPECT_EQ(*expected, *actual) << u << "," << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesThreadsGroups, EngineEquivalence,
    ::testing::ValuesIn(registry_param_grid()),
    [](const ::testing::TestParamInfo<EngineThreadsGs>& param_info) {
      std::string name = std::get<0>(param_info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_t" + std::to_string(std::get<1>(param_info.param)) + "_gs" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(EngineEquivalence, CpdagIdenticalAcrossRegisteredEnginesOnSampledData) {
  // End-to-end: every registered engine yields the byte-identical CPDAG
  // (skeleton + orientations) on the sampled fixture.
  PcOptions reference_options;
  reference_options.engine = engine_from_string("fastbns-seq");
  const DiscreteCiTest reference_test(fixture().data, {});
  const PcStableResult reference =
      pc_stable(fixture().data.num_vars(), reference_test, reference_options);

  for (const std::string& name : list_engines()) {
    PcOptions options;
    options.engine = engine_from_string(name);
    options.engine_name = name;
    options.num_threads = 2;
    options.group_size = 4;
    CiTestOptions test_options;
    test_options.sample_parallel =
        EngineRegistry::instance().find(name)->sample_parallel_test;
    const DiscreteCiTest test(fixture().data, test_options);
    const PcStableResult result =
        pc_stable(fixture().data.num_vars(), test, options);
    EXPECT_TRUE(result.cpdag == reference.cpdag) << name;
  }
}

TEST(EngineEquivalence, CiTestCountDeterministicPerGroupSize) {
  // For a fixed gs the executed CI-test count must not depend on thread
  // count (the redundancy is a function of the canonical order only).
  for (const std::int32_t gs : {1, 4, 8}) {
    std::int64_t reference_count = -1;
    for (const int threads : {1, 2, 4}) {
      PcOptions options;
      options.engine = EngineKind::kCiParallel;
      options.num_threads = threads;
      options.group_size = gs;
      const DiscreteCiTest test(fixture().data, {});
      const SkeletonResult result =
          learn_skeleton(fixture().data.num_vars(), test, options);
      if (reference_count < 0) {
        reference_count = result.total_ci_tests;
      } else {
        EXPECT_EQ(result.total_ci_tests, reference_count)
            << "gs=" << gs << " t=" << threads;
      }
    }
  }
}

TEST(EngineEquivalence, GroupSizeOneMatchesSequentialTestCount) {
  PcOptions sequential;
  sequential.engine = EngineKind::kFastSequential;
  PcOptions pooled;
  pooled.engine = EngineKind::kCiParallel;
  pooled.group_size = 1;
  pooled.num_threads = 2;
  const DiscreteCiTest test(fixture().data, {});
  const SkeletonResult a =
      learn_skeleton(fixture().data.num_vars(), test, sequential);
  const SkeletonResult b =
      learn_skeleton(fixture().data.num_vars(), test, pooled);
  // gs=1 introduces no redundant tests, so counts match exactly.
  EXPECT_EQ(a.total_ci_tests, b.total_ci_tests);
}

TEST(EngineEquivalence, LargerGroupSizeNeverReducesTests) {
  std::int64_t previous = 0;
  for (const std::int32_t gs : {1, 2, 4, 8, 16}) {
    PcOptions options;
    options.engine = EngineKind::kCiParallel;
    options.group_size = gs;
    options.num_threads = 2;
    const DiscreteCiTest test(fixture().data, {});
    const SkeletonResult result =
        learn_skeleton(fixture().data.num_vars(), test, options);
    if (gs > 1) {
      EXPECT_GE(result.total_ci_tests, previous) << "gs=" << gs;
    }
    previous = result.total_ci_tests;
  }
}

TEST(EngineEquivalence, EagerGroupStopIsResultIdentical) {
  // The eager extension must change only the executed-test count, never
  // the skeleton or the sepsets, at any gs and thread count (bench_fig2
  // runs the CI-level scheme with gs=8 + eager stop, so that combination
  // must be pinned).
  static const SkeletonResult reference = reference_result();
  for (const std::int32_t gs : {2, 8}) {
    for (const int threads : {1, 3}) {
      PcOptions options;
      options.engine = EngineKind::kCiParallel;
      options.num_threads = threads;
      options.group_size = gs;
      options.eager_group_stop = true;
      const DiscreteCiTest test(fixture().data, {});
      const SkeletonResult result =
          learn_skeleton(fixture().data.num_vars(), test, options);
      EXPECT_TRUE(result.graph == reference.graph)
          << "gs=" << gs << " t=" << threads;
      const VarId n = fixture().data.num_vars();
      for (VarId u = 0; u < n; ++u) {
        for (VarId v = u + 1; v < n; ++v) {
          const auto* expected = reference.sepsets.find(u, v);
          const auto* actual = result.sepsets.find(u, v);
          ASSERT_EQ(expected == nullptr, actual == nullptr);
          if (expected != nullptr) {
            EXPECT_EQ(*expected, *actual);
          }
        }
      }
    }
  }
}

/// Wraps a CI test and counts, across all of its clones, the group
/// starts whose endpoint pair differs from the clone's previous group —
/// the begin_group calls on which a DiscreteCiTest must recompute the
/// endpoint codes instead of reusing them.
class EndpointSwitchSpy final : public CiTest {
 public:
  EndpointSwitchSpy(std::unique_ptr<CiTest> inner,
                    std::shared_ptr<std::atomic<std::int64_t>> switches)
      : inner_(std::move(inner)), switches_(std::move(switches)) {}

  CiResult test(VarId x, VarId y, std::span<const VarId> z) override {
    ++tests_performed_;
    return inner_->test(x, y, z);
  }
  void begin_group(VarId x, VarId y) override {
    if (x != last_x_ || y != last_y_) {
      switches_->fetch_add(1, std::memory_order_relaxed);
      last_x_ = x;
      last_y_ = y;
    }
    inner_->begin_group(x, y);
  }
  CiResult test_in_group(std::span<const VarId> z) override {
    ++tests_performed_;
    return inner_->test_in_group(z);
  }
  [[nodiscard]] std::uint64_t config_token() const noexcept override {
    return inner_->config_token();
  }
  [[nodiscard]] std::unique_ptr<CiTest> clone() const override {
    return std::make_unique<EndpointSwitchSpy>(inner_->clone(), switches_);
  }

 private:
  std::unique_ptr<CiTest> inner_;
  std::shared_ptr<std::atomic<std::int64_t>> switches_;
  VarId last_x_ = kInvalidVar;
  VarId last_y_ = kInvalidVar;
};

TEST(EngineEquivalence, CiLevelClaimKeepsEndpointCodesAcrossGroups) {
  // Section IV-C: the endpoint codes x*|Y|+y are computed once per edge,
  // not once per test. At gs = 1 every group is a single test, so this
  // holds only if one pool claim runs several groups of the *same* edge.
  // With one thread the LIFO pool hands a pushed-back edge straight back,
  // so every claim of an edge after its first continues the cached pair:
  // the switch count is bounded by the number of works per depth.
  for (const char* network_name : {"alarm", "insurance"}) {
    SCOPED_TRACE(network_name);
    const std::optional<BayesianNetwork> network =
        benchmark_network(network_name);
    ASSERT_TRUE(network.has_value());
    Rng rng(2024);
    const DiscreteDataset data =
        forward_sample(*network, 2000, rng, DataLayout::kBoth);

    const auto switches = std::make_shared<std::atomic<std::int64_t>>(0);
    const EndpointSwitchSpy test(
        std::make_unique<DiscreteCiTest>(data, CiTestOptions{}), switches);
    PcOptions options;
    options.engine = EngineKind::kCiParallel;
    options.num_threads = 1;
    options.group_size = 1;
    const SkeletonResult result =
        learn_skeleton(data.num_vars(), test, options);

    std::int64_t works = 0;
    for (const DepthStats& stats : result.depth_stats) {
      works += stats.edges_at_start;
    }
    EXPECT_GT(result.max_depth_reached, 1);
    EXPECT_LE(switches->load(), works)
        << "total CI tests: " << result.total_ci_tests;
  }
}

TEST(EngineEquivalence, EagerGroupStopNeverExecutesMoreTests) {
  PcOptions paper_semantics;
  paper_semantics.engine = EngineKind::kCiParallel;
  paper_semantics.group_size = 8;
  paper_semantics.num_threads = 2;
  PcOptions eager = paper_semantics;
  eager.eager_group_stop = true;
  const DiscreteCiTest test(fixture().data, {});
  const SkeletonResult batched =
      learn_skeleton(fixture().data.num_vars(), test, paper_semantics);
  const SkeletonResult stopped =
      learn_skeleton(fixture().data.num_vars(), test, eager);
  EXPECT_LE(stopped.total_ci_tests, batched.total_ci_tests);
  // And eager at any gs equals the gs=1 count (no redundancy at all).
  PcOptions gs1 = paper_semantics;
  gs1.group_size = 1;
  const SkeletonResult baseline =
      learn_skeleton(fixture().data.num_vars(), test, gs1);
  EXPECT_EQ(stopped.total_ci_tests, baseline.total_ci_tests);
}

/// Discrete inputs the sampled fixture never produces. Column 0 is
/// constant (declared binary, one observed state). Columns 1 and 2 have
/// 20 states each, so their pair's cx * cy = 400 codes skip the packed
/// uint8 xy mirror. Columns 3 and 4 (3 states each) are both children of
/// column 2, so the 1 -- 2 edge is still tested at depth 2, where the
/// simd kernel takes its vector path. Column 5 is an independent coin.
DiscreteDataset degenerate_dataset(Count m, std::uint64_t seed) {
  DiscreteDataset data(6, m, {2, 20, 20, 3, 3, 2}, DataLayout::kBoth);
  Rng rng(seed);
  const auto noisy = [&rng](DataValue value, std::uint64_t states) {
    return rng.next_double() < 0.8
               ? value
               : static_cast<DataValue>(rng.next_below(states));
  };
  for (Count s = 0; s < m; ++s) {
    const auto a = static_cast<DataValue>(rng.next_below(20));
    const DataValue b = noisy(a, 20);
    data.set(s, 0, 0);
    data.set(s, 1, a);
    data.set(s, 2, b);
    data.set(s, 3, noisy(static_cast<DataValue>(b % 3), 3));
    data.set(s, 4, noisy(static_cast<DataValue>(b / 7), 3));
    data.set(s, 5, static_cast<DataValue>(rng.next_below(2)));
  }
  return data;
}

TEST(EngineEquivalence, DegenerateDiscreteInputsAgreeAcrossKernelsAndEngines) {
  // 20000 rows make every dependence unmistakable; 15 rows are fewer
  // than the degrees of freedom of every test on the wide pair
  // (19 * 19 = 361). Every kernel under every engine must reproduce the
  // fastbns-seq/scalar skeleton and sepsets, and the constant column must
  // lose all its edges at depth 0 (an empty sepset per pair).
  for (const Count m : {Count{20000}, Count{15}}) {
    const DiscreteDataset data = degenerate_dataset(m, 83);
    const VarId n = data.num_vars();
    ScratchArena arena;
    ASSERT_TRUE(make_table_context(data, 1, 2, /*row_major=*/false, arena)
                    .xy_codes8.empty());
    PcOptions reference_options;
    reference_options.engine = EngineKind::kFastSequential;
    CiTestOptions scalar;
    scalar.table_builder = "scalar";
    const SkeletonResult reference =
        learn_skeleton(n, DiscreteCiTest(data, scalar), reference_options);
    for (VarId v = 1; v < n; ++v) {
      EXPECT_FALSE(reference.graph.has_edge(0, v)) << "m=" << m;
      const auto* sepset = reference.sepsets.find(0, v);
      ASSERT_NE(sepset, nullptr) << "m=" << m << " v=" << v;
      EXPECT_TRUE(sepset->empty()) << "m=" << m << " v=" << v;
    }
    if (m == 20000) {
      // The star 1, 3, 4 -- 2 survives and its leaves separate given 2,
      // so the wide pair is counted at depths 0, 1 and 2.
      EXPECT_GE(reference.max_depth_reached, 2);
      for (const VarId leaf : {1, 3, 4}) {
        EXPECT_TRUE(reference.graph.has_edge(2, leaf)) << leaf;
      }
      const auto* sepset = reference.sepsets.find(1, 3);
      ASSERT_NE(sepset, nullptr);
      EXPECT_EQ(*sepset, (std::vector<VarId>{2}));
    }

    for (const char* kernel : {"scalar", "batched", "simd"}) {
      for (const std::string& name : list_engines()) {
        const std::string label =
            name + " kernel=" + kernel + " m=" + std::to_string(m);
        PcOptions options;
        options.engine = engine_from_string(name);
        options.engine_name = name;
        options.num_threads = 2;
        options.group_size = 4;
        CiTestOptions test_options;
        test_options.table_builder = kernel;
        test_options.sample_parallel =
            EngineRegistry::instance().find(name)->sample_parallel_test;
        const SkeletonResult result =
            learn_skeleton(n, DiscreteCiTest(data, test_options), options);
        EXPECT_TRUE(result.graph == reference.graph) << label;
        for (VarId u = 0; u < n; ++u) {
          for (VarId v = u + 1; v < n; ++v) {
            const auto* expected = reference.sepsets.find(u, v);
            const auto* actual = result.sepsets.find(u, v);
            ASSERT_EQ(expected == nullptr, actual == nullptr)
                << label << ": " << u << "," << v;
            if (expected != nullptr) {
              EXPECT_EQ(*expected, *actual) << label << ": " << u << "," << v;
            }
          }
        }
      }
    }
  }
}

TEST(EngineEquivalence, GaussianSkeletonIdenticalAcrossRegisteredEngines) {
  // The statistic-agnostic counterpart of the central property: swap the
  // G^2 test for Fisher-z over a linear-Gaussian SEM sample and every
  // registered engine — the process engine at one and two ranks — must
  // still produce the byte-identical skeleton, sepsets, and CPDAG. This
  // goes through learn_structure's Dataset path, so the factory, the
  // continuous shm segment, and per-thread Fisher-z clones are all on
  // the line, not just the engines.
  static const Dataset data = [] {
    RandomNetworkConfig config;
    config.num_nodes = 18;
    config.num_edges = 26;
    config.seed = 301;
    const BayesianNetwork network = generate_random_network(config);
    Rng rng(302);
    const LinearGaussianSem sem =
        random_linear_gaussian_sem(network.dag(), rng);
    return Dataset(sample_linear_gaussian(sem, 1500, rng));
  }();

  PcOptions reference_options;
  reference_options.engine = engine_from_string("fastbns-seq");
  reference_options.ci_test = "gaussian";
  const PcStableResult reference = learn_structure(data, reference_options);
  EXPECT_GT(reference.skeleton.graph.num_edges(), 0);

  for (const std::string& name : list_engines()) {
    const bool is_process = name == "process(rank-partition)";
    for (const std::int32_t ranks : is_process
                                        ? std::vector<std::int32_t>{1, 2}
                                        : std::vector<std::int32_t>{0}) {
      PcOptions options;
      options.engine = engine_from_string(name);
      options.engine_name = name;
      options.num_threads = 2;
      options.group_size = 4;
      options.ci_test = "gaussian";
      options.rank_count = ranks;
      const PcStableResult result = learn_structure(data, options);
      const std::string label = name + " ranks=" + std::to_string(ranks);
      EXPECT_TRUE(result.skeleton.graph == reference.skeleton.graph) << label;
      EXPECT_TRUE(result.cpdag == reference.cpdag) << label;
      const VarId n = data.num_vars();
      for (VarId u = 0; u < n; ++u) {
        for (VarId v = u + 1; v < n; ++v) {
          const auto* expected = reference.skeleton.sepsets.find(u, v);
          const auto* actual = result.skeleton.sepsets.find(u, v);
          ASSERT_EQ(expected == nullptr, actual == nullptr)
              << label << ": " << u << "," << v;
          if (expected != nullptr) {
            EXPECT_EQ(*expected, *actual) << label << ": " << u << "," << v;
          }
        }
      }
    }
  }
}

TEST(EngineEquivalence, GaussianAutoResolutionMatchesExplicitName) {
  // "auto" on continuous data must be exactly the Fisher-z run.
  static const Dataset data = [] {
    RandomNetworkConfig config;
    config.num_nodes = 12;
    config.num_edges = 16;
    config.seed = 311;
    const BayesianNetwork network = generate_random_network(config);
    Rng rng(312);
    const LinearGaussianSem sem =
        random_linear_gaussian_sem(network.dag(), rng);
    return Dataset(sample_linear_gaussian(sem, 900, rng));
  }();
  PcOptions explicit_options;
  explicit_options.ci_test = "gaussian";
  PcOptions auto_options;
  auto_options.ci_test = "auto";
  const PcStableResult a = learn_structure(data, explicit_options);
  const PcStableResult b = learn_structure(data, auto_options);
  EXPECT_TRUE(a.skeleton.graph == b.skeleton.graph);
  EXPECT_TRUE(a.cpdag == b.cpdag);
  EXPECT_EQ(a.skeleton.total_ci_tests, b.skeleton.total_ci_tests);
}

TEST(EngineEquivalence, OracleRunsAgreeAcrossRegisteredEngines) {
  const BayesianNetwork alarm = alarm_network();
  DSeparationOracle oracle(alarm.dag());
  PcOptions reference_options;
  reference_options.engine = engine_from_string("fastbns-seq");
  const PcStableResult reference =
      pc_stable(alarm.num_nodes(), oracle, reference_options);
  EXPECT_TRUE(reference.skeleton.graph == alarm.dag().skeleton());

  for (const std::string& name : list_engines()) {
    PcOptions options;
    options.engine = engine_from_string(name);
    options.engine_name = name;
    options.num_threads = 2;
    options.group_size = 4;
    const PcStableResult result = pc_stable(alarm.num_nodes(), oracle, options);
    EXPECT_TRUE(result.skeleton.graph == reference.skeleton.graph) << name;
    EXPECT_TRUE(result.cpdag == reference.cpdag) << name;
    const VarId n = alarm.num_nodes();
    for (VarId u = 0; u < n; ++u) {
      for (VarId v = u + 1; v < n; ++v) {
        const auto* expected = reference.skeleton.sepsets.find(u, v);
        const auto* actual = result.skeleton.sepsets.find(u, v);
        ASSERT_EQ(expected == nullptr, actual == nullptr)
            << name << ": " << u << "," << v;
        if (expected != nullptr) {
          EXPECT_EQ(*expected, *actual) << name << ": " << u << "," << v;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fastbns
