// The NUMA subsystem's contract tests: cpulist parsing, fake-sysfs
// detection, the FASTBNS_NUMA override grammar, the no-op degradation of
// pinning on boxes where it cannot work, and the shard->domain /
// variable->domain deals the sharded engine and the cache-sim replay
// share. Everything here runs on a single-cpu CI box — simulated
// topologies and temp-dir sysfs fixtures stand in for real hardware.
#include "topology/numa_topology.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "topology/placement.hpp"

namespace fastbns {
namespace {

// -- Environment + fixture plumbing -----------------------------------

/// setenv/unsetenv guard: FASTBNS_NUMA leaks into NumaTopology::detect()
/// everywhere, so every test that sets it must restore the prior value
/// even on assertion failure.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* previous = std::getenv(name);
    if (previous != nullptr) saved_ = previous;
    had_value_ = previous != nullptr;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_value_) {
      setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string saved_;
  bool had_value_ = false;
};

/// Temp directory styled like /sys/devices/system/node: node<k>/cpulist
/// files with caller-chosen contents. Removed on destruction.
class FakeSysfs {
 public:
  FakeSysfs() {
    dir_ = std::filesystem::temp_directory_path() /
           ("fastbns_numa_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    std::filesystem::create_directories(dir_);
  }
  ~FakeSysfs() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  FakeSysfs(const FakeSysfs&) = delete;
  FakeSysfs& operator=(const FakeSysfs&) = delete;

  void add_node(int id, const std::string& cpulist) {
    const std::filesystem::path node = dir_ / ("node" + std::to_string(id));
    std::filesystem::create_directories(node);
    std::ofstream(node / "cpulist") << cpulist;
  }
  [[nodiscard]] std::string path() const { return dir_.string(); }

 private:
  static int& counter() {
    static int value = 0;
    return value;
  }
  std::filesystem::path dir_;
};

// -- parse_cpulist -----------------------------------------------------

TEST(ParseCpulist, RangesSinglesAndDuplicates) {
  EXPECT_EQ(parse_cpulist("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(parse_cpulist("5"), (std::vector<int>{5}));
  EXPECT_EQ(parse_cpulist("0-1,1-2"), (std::vector<int>{0, 1, 2}));  // dedup
  EXPECT_EQ(parse_cpulist("7,3,5"), (std::vector<int>{3, 5, 7}));    // sorted
  EXPECT_EQ(parse_cpulist("0-3\n"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(parse_cpulist("  2  "), (std::vector<int>{2}));
}

TEST(ParseCpulist, MalformedInputThrows) {
  for (const char* text :
       {"", "   ", "\n", "3-1", "1-", "-2", "a", "0-3,x", "1,,2", "1.5"}) {
    EXPECT_THROW((void)parse_cpulist(text), std::invalid_argument)
        << "input \"" << text << "\"";
  }
}

// -- sysfs detection ---------------------------------------------------

TEST(NumaTopology, FakeSysfsTwoNodes) {
  FakeSysfs sysfs;
  sysfs.add_node(0, "0-1\n");
  sysfs.add_node(1, "2-3\n");
  const NumaTopology topology = NumaTopology::from_sysfs(sysfs.path());
  ASSERT_EQ(topology.num_domains(), 2);
  EXPECT_TRUE(topology.cpus_are_physical());
  EXPECT_EQ(topology.domains()[0].cpus, (std::vector<int>{0, 1}));
  EXPECT_EQ(topology.domains()[1].cpus, (std::vector<int>{2, 3}));
}

TEST(NumaTopology, FakeSysfsSparseNodeIdsStayOrdered) {
  // Real boxes can have non-dense node ids (offlined nodes); the scan
  // must keep order and re-number densely.
  FakeSysfs sysfs;
  sysfs.add_node(0, "0\n");
  sysfs.add_node(2, "1\n");
  const NumaTopology topology = NumaTopology::from_sysfs(sysfs.path());
  ASSERT_EQ(topology.num_domains(), 2);
  EXPECT_EQ(topology.domains()[0].id, 0);
  EXPECT_EQ(topology.domains()[1].id, 1);
  EXPECT_EQ(topology.domains()[1].cpus, (std::vector<int>{1}));
}

TEST(NumaTopology, FakeSysfsEmptyOrMissingFallsBackToSingleNode) {
  FakeSysfs empty;  // directory exists, no node<k> subdirs
  const NumaTopology from_empty = NumaTopology::from_sysfs(empty.path());
  EXPECT_EQ(from_empty.num_domains(), 1);
  EXPECT_TRUE(from_empty.cpus_are_physical());
  EXPECT_FALSE(from_empty.domains()[0].cpus.empty());

  const NumaTopology from_missing =
      NumaTopology::from_sysfs("/nonexistent/fastbns/node/dir");
  EXPECT_EQ(from_missing.num_domains(), 1);
}

TEST(NumaTopology, FakeSysfsMalformedCpulistFallsBackNotThrows) {
  FakeSysfs sysfs;
  sysfs.add_node(0, "0-1\n");
  sysfs.add_node(1, "not a cpu list\n");
  NumaTopology topology = NumaTopology::single_node();
  EXPECT_NO_THROW(topology = NumaTopology::from_sysfs(sysfs.path()));
  EXPECT_EQ(topology.num_domains(), 1);  // whole parse degrades, not half
}

// -- FASTBNS_NUMA override grammar ------------------------------------

TEST(NumaTopology, EnvOffForcesSingleDomain) {
  const ScopedEnv guard("FASTBNS_NUMA", "off");
  const NumaTopology topology = NumaTopology::detect();
  EXPECT_EQ(topology.num_domains(), 1);
  EXPECT_TRUE(topology.cpus_are_physical());
}

TEST(NumaTopology, EnvSimulatedFormBuildsSyntheticDomains) {
  const ScopedEnv guard("FASTBNS_NUMA", "2x4");
  const NumaTopology topology = NumaTopology::detect();
  ASSERT_EQ(topology.num_domains(), 2);
  EXPECT_FALSE(topology.cpus_are_physical());
  EXPECT_EQ(topology.domains()[0].cpus, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(topology.domains()[1].cpus, (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(topology.describe(), "2 simulated nodes (4+4 cpus)");
}

TEST(NumaTopology, EnvSplitFormClampsToTheCpuCount) {
  // "<D>" splits the *real* affinity mask; a D beyond the cpu count must
  // clamp (a 1-cpu box yields 1 domain), and the result stays physical
  // (pinnable) with every affinity cpu dealt exactly once.
  const ScopedEnv guard("FASTBNS_NUMA", "2");
  const NumaTopology topology = NumaTopology::detect();
  const std::vector<int> affinity = current_affinity_cpus();
  const auto expected_domains = static_cast<std::int32_t>(
      std::min<std::size_t>(2, affinity.size()));
  ASSERT_EQ(topology.num_domains(), expected_domains);
  EXPECT_TRUE(topology.cpus_are_physical());
  std::vector<int> dealt;
  for (const NumaDomain& domain : topology.domains()) {
    dealt.insert(dealt.end(), domain.cpus.begin(), domain.cpus.end());
  }
  EXPECT_EQ(dealt, affinity);
}

TEST(NumaTopology, EnvMalformedWarnsAndFallsBackToDetection) {
  for (const char* value : {"abc", "0", "-2", "2x", "x4", "2x0", "1x-1"}) {
    const ScopedEnv guard("FASTBNS_NUMA", value);
    NumaTopology topology = NumaTopology::simulated(2, 1);
    EXPECT_NO_THROW(topology = NumaTopology::detect()) << value;
    // Real detection on any box yields >= 1 physical domain.
    EXPECT_GE(topology.num_domains(), 1) << value;
    EXPECT_TRUE(topology.cpus_are_physical()) << value;
  }
}

TEST(NumaTopology, ConstructorsValidate) {
  EXPECT_THROW((void)NumaTopology::simulated(0, 1), std::invalid_argument);
  EXPECT_THROW((void)NumaTopology::simulated(2, 0), std::invalid_argument);
  EXPECT_THROW((void)NumaTopology::split_affinity(0), std::invalid_argument);
  EXPECT_EQ(NumaTopology::single_node({3, 5}).domains()[0].cpus,
            (std::vector<int>{3, 5}));
}

TEST(NumaTopology, DescribeNamesSimulatedAndPhysicalForms) {
  EXPECT_EQ(NumaTopology::simulated(2, 2).describe(),
            "2 simulated nodes (2+2 cpus)");
  EXPECT_EQ(NumaTopology::single_node({0}).describe(), "1 node (1 cpus)");
}

// -- Pinning degradation ----------------------------------------------

TEST(Pinning, EmptyAndSyntheticCpuListsNoOp) {
  EXPECT_FALSE(pin_current_thread({}));
  // Synthetic ids far outside any real mask: the intersection is empty,
  // so the call must leave the affinity untouched and report false.
  const std::vector<int> before = current_affinity_cpus();
  EXPECT_FALSE(pin_current_thread({100000, 100001}));
  EXPECT_EQ(current_affinity_cpus(), before);
}

TEST(Pinning, ScopedAffinityPinsAndRestores) {
  const std::vector<int> before = current_affinity_cpus();
  ASSERT_FALSE(before.empty());
  {
    const ScopedThreadAffinity pin({before.front()});
#if defined(__linux__)
    EXPECT_TRUE(pin.pinned());
    EXPECT_EQ(current_affinity_cpus(), (std::vector<int>{before.front()}));
#endif
  }
  EXPECT_EQ(current_affinity_cpus(), before);  // restored on scope exit
}

TEST(Pinning, ScopedAffinityOnUnpinnableListIsInert) {
  const std::vector<int> before = current_affinity_cpus();
  const ScopedThreadAffinity pin(std::vector<int>{});
  EXPECT_FALSE(pin.pinned());
  EXPECT_EQ(current_affinity_cpus(), before);
}

TEST(Prefault, CountsPagesIncludingTheTail) {
  const std::vector<unsigned char> buffer(3 * 4096 + 1);
  EXPECT_EQ(prefault_readonly(buffer.data(), buffer.size()), 4u);
  EXPECT_EQ(prefault_readonly(buffer.data(), 4096), 1u);
  EXPECT_EQ(prefault_readonly(buffer.data(), 1), 1u);
  EXPECT_EQ(prefault_readonly(buffer.data(), 0), 0u);
  EXPECT_EQ(prefault_readonly(nullptr, 4096), 0u);
}

// -- Policy + placement ------------------------------------------------

TEST(NumaPolicy, NamesRoundTripAndUnknownThrows) {
  for (const std::string& name : list_numa_policies()) {
    EXPECT_EQ(to_string(numa_policy_from_string(name)), name);
  }
  EXPECT_THROW((void)numa_policy_from_string("on"), std::invalid_argument);
  EXPECT_THROW((void)numa_policy_from_string(""), std::invalid_argument);
}

TEST(ShardPlacement, ActivationRulesPerPolicy) {
  const NumaTopology one = NumaTopology::single_node({0});
  const NumaTopology two = NumaTopology::simulated(2, 1);
  // auto engages only on multi-domain topologies; forced always; off never.
  EXPECT_FALSE(plan_shard_placement(NumaPolicy::kAuto, 4, one).active);
  EXPECT_TRUE(plan_shard_placement(NumaPolicy::kAuto, 4, two).active);
  EXPECT_TRUE(plan_shard_placement(NumaPolicy::kForced, 4, one).active);
  EXPECT_TRUE(plan_shard_placement(NumaPolicy::kForced, 4, two).active);
  EXPECT_FALSE(plan_shard_placement(NumaPolicy::kOff, 4, one).active);
  EXPECT_FALSE(plan_shard_placement(NumaPolicy::kOff, 4, two).active);
}

TEST(ShardPlacement, BalancedContiguousBlockDeal) {
  const NumaTopology two = NumaTopology::simulated(2, 1);
  EXPECT_EQ(plan_shard_placement(NumaPolicy::kForced, 4, two).shard_domain,
            (std::vector<std::int32_t>{0, 0, 1, 1}));
  EXPECT_EQ(plan_shard_placement(NumaPolicy::kForced, 5, two).shard_domain,
            (std::vector<std::int32_t>{0, 0, 0, 1, 1}));
  EXPECT_EQ(plan_shard_placement(NumaPolicy::kForced, 1, two).shard_domain,
            (std::vector<std::int32_t>{0}));
  const NumaTopology three = NumaTopology::simulated(3, 1);
  EXPECT_EQ(plan_shard_placement(NumaPolicy::kForced, 6, three).shard_domain,
            (std::vector<std::int32_t>{0, 0, 1, 1, 2, 2}));
  // More domains than shards: block sizes differ by at most one and stay
  // monotone (contiguous shards -> contiguous domains).
  EXPECT_EQ(plan_shard_placement(NumaPolicy::kForced, 2, three).shard_domain,
            (std::vector<std::int32_t>{0, 1}));
  EXPECT_THROW(
      (void)plan_shard_placement(NumaPolicy::kForced, 0, two),
      std::invalid_argument);
}

TEST(ShardPlacement, DescribeRendersTheBlockDeal) {
  const ShardPlacement placement =
      plan_shard_placement(NumaPolicy::kForced, 4, NumaTopology::simulated(2, 2));
  EXPECT_EQ(placement.describe(),
            "active, 2 simulated nodes (2+2 cpus), shards [0,2)->node0 "
            "[2,4)->node1");
  const ShardPlacement inactive = plan_shard_placement(
      NumaPolicy::kOff, 1, NumaTopology::single_node({0}));
  EXPECT_EQ(inactive.describe(), "inactive, 1 node (1 cpus), shards 0->node0");
}

}  // namespace
}  // namespace fastbns
