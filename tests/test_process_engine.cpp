// The multi-process engine against the library's central claim: forked
// ranks exchanging removal sets over their IPC channels must produce the
// bit-identical skeleton (adjacency + sepsets + removal depths) and the
// identical executed-test count the in-process engines produce — at
// every rank count, including one rank and more ranks than useful. Plus
// the fault-tolerance
// layer: under every deterministic injected fault (kill, wedge,
// corrupt/truncate/delay-frame, slow rank, spawn failure, and the
// connection-shaped drop-conn/partial-write) the supervisor's recovery
// ladder — retransmit, respawn + checkpoint replay, re-partition,
// degrade to the in-process engine — must complete the run with the
// identical fingerprint, and the recovery telemetry must name what
// happened. Plus child-exception propagation, the end-to-end
// learn_structure path over the MAP_SHARED segment, and the rank/thread
// resolution rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/engine_registry.hpp"
#include "engine/process_engine.hpp"
#include "fuzz_util.hpp"
#include "network/forward_sampler.hpp"
#include "network/standard_networks.hpp"
#include "pc/pc_stable.hpp"
#include "pc/skeleton.hpp"
#include "stats/discrete_ci_test.hpp"

namespace fastbns {
namespace {

PcOptions process_options(std::int32_t ranks, std::int32_t rank_threads = 1) {
  PcOptions options;
  options.engine = EngineKind::kProcess;
  options.engine_name = "process(rank-partition)";
  options.rank_count = ranks;
  options.rank_threads = rank_threads;
  return options;
}

TEST(ProcessEngine, MatchesTheSequentialReferenceAcrossRankCounts) {
  // Three seeds x {1, 2, 4} ranks x {1, 2} threads-per-rank, each
  // fingerprinted against fastbns-seq. One rank pins the degenerate
  // group, four ranks exceed the work some shallow depths have — the
  // allreduce must stay correct when a rank's shard is empty.
  for (std::uint64_t seed : {0ull, 3ull, 7ull}) {
    const fuzz::FuzzInstance instance = fuzz::make_instance(seed);
    const VarId n = instance.data.num_vars();

    PcOptions reference_options;
    reference_options.engine = EngineKind::kFastSequential;
    const DiscreteCiTest reference_test(instance.data, CiTestOptions{});
    const fuzz::SkeletonFingerprint reference = fuzz::fingerprint(
        learn_skeleton(n, reference_test, reference_options), n);

    for (const std::int32_t ranks : {1, 2, 4}) {
      for (const std::int32_t rank_threads : {1, 2}) {
        const DiscreteCiTest test(instance.data, CiTestOptions{});
        const fuzz::SkeletonFingerprint actual = fuzz::fingerprint(
            learn_skeleton(n, test, process_options(ranks, rank_threads)), n);
        EXPECT_TRUE(actual == reference)
            << "seed=" << seed << " ranks=" << ranks << "x" << rank_threads
            << ": " << fuzz::describe_divergence(reference, actual, n);
      }
    }
  }
}

TEST(ProcessEngine, ExecutedTestCountsMatchTheReferenceAtEveryRankCount) {
  // Stronger than result identity: the ranks must run exactly the tests
  // the sequential engine runs (same works, same early stops), so the
  // summed per-depth counters agree — the invariant that makes the
  // paper-style CI-test tables comparable across engines.
  const fuzz::FuzzInstance instance = fuzz::make_instance(11);
  const VarId n = instance.data.num_vars();
  PcOptions reference_options;
  reference_options.engine = EngineKind::kFastSequential;
  const DiscreteCiTest reference_test(instance.data, CiTestOptions{});
  const SkeletonResult reference =
      learn_skeleton(n, reference_test, reference_options);
  for (const std::int32_t ranks : {1, 2, 3, 4}) {
    const DiscreteCiTest test(instance.data, CiTestOptions{});
    const SkeletonResult actual =
        learn_skeleton(n, test, process_options(ranks));
    EXPECT_EQ(actual.total_ci_tests, reference.total_ci_tests)
        << "ranks=" << ranks;
    ASSERT_EQ(actual.depth_stats.size(), reference.depth_stats.size())
        << "ranks=" << ranks;
    for (std::size_t d = 0; d < reference.depth_stats.size(); ++d) {
      EXPECT_EQ(actual.depth_stats[d].ci_tests,
                reference.depth_stats[d].ci_tests)
          << "ranks=" << ranks << " depth=" << d;
      EXPECT_EQ(actual.depth_stats[d].edges_removed,
                reference.depth_stats[d].edges_removed)
          << "ranks=" << ranks << " depth=" << d;
    }
  }
}

TEST(ProcessEngine, LearnStructureOverTheSharedSegmentMatchesSequential) {
  // The end-to-end path production runs take: learn_structure places the
  // dataset in a MAP_SHARED segment before building the CI test, forks
  // the ranks, and orients the agreed skeleton. The CPDAG must match the
  // sequential engine's edge for edge.
  Rng rng(2024);
  const auto network = benchmark_network("alarm");
  ASSERT_TRUE(network.has_value());
  const DiscreteDataset data =
      forward_sample(*network, 1000, rng, DataLayout::kColumnMajor);

  PcOptions sequential;
  sequential.engine = EngineKind::kFastSequential;
  const PcStableResult expected = learn_structure(data, sequential);
  const PcStableResult actual = learn_structure(data, process_options(2, 2));

  auto directed = actual.cpdag.directed_edges();
  auto expected_directed = expected.cpdag.directed_edges();
  std::sort(directed.begin(), directed.end());
  std::sort(expected_directed.begin(), expected_directed.end());
  EXPECT_EQ(directed, expected_directed);
  auto undirected = actual.cpdag.undirected_edges();
  auto expected_undirected = expected.cpdag.undirected_edges();
  std::sort(undirected.begin(), undirected.end());
  std::sort(expected_undirected.begin(), expected_undirected.end());
  EXPECT_EQ(undirected, expected_undirected);
  EXPECT_EQ(actual.skeleton.total_ci_tests, expected.skeleton.total_ci_tests);
}

/// Runs the process engine under `options` and returns the fingerprint,
/// the skeleton result and the supervisor's recovery events.
struct FaultRun {
  fuzz::SkeletonFingerprint fingerprint;
  SkeletonResult result;
  std::vector<RecoveryEvent> events;
  std::vector<ProcessDepthStats> depth_stats;
};

FaultRun run_process(const fuzz::FuzzInstance& instance, PcOptions options) {
  const auto engine = EngineRegistry::instance().create("process");
  const DiscreteCiTest test(instance.data, CiTestOptions{});
  FaultRun run;
  run.result =
      learn_skeleton(instance.data.num_vars(), test, options, *engine);
  run.fingerprint = fuzz::fingerprint(run.result, instance.data.num_vars());
  run.events = *process_engine_recovery_events(*engine);
  run.depth_stats = *process_engine_depth_stats(*engine);
  return run;
}

fuzz::SkeletonFingerprint sequential_fingerprint(
    const fuzz::FuzzInstance& instance, std::int64_t* total_tests = nullptr) {
  PcOptions options;
  options.engine = EngineKind::kFastSequential;
  const DiscreteCiTest test(instance.data, CiTestOptions{});
  const SkeletonResult result =
      learn_skeleton(instance.data.num_vars(), test, options);
  if (total_tests != nullptr) *total_tests = result.total_ci_tests;
  return fuzz::fingerprint(result, instance.data.num_vars());
}

bool has_action(const std::vector<RecoveryEvent>& events,
                RecoveryAction action, int rank = -2) {
  return std::any_of(events.begin(), events.end(),
                     [&](const RecoveryEvent& event) {
                       return event.action == action &&
                              (rank == -2 || event.rank == rank);
                     });
}

std::string describe_events(const std::vector<RecoveryEvent>& events) {
  std::string text;
  for (const RecoveryEvent& event : events) {
    text += "depth " + std::to_string(event.depth) + " rank " +
            std::to_string(event.rank) + " " +
            std::string(to_string(event.action)) + ": " + event.detail + "\n";
  }
  return text.empty() ? "(no events)" : text;
}

TEST(ProcessEngine, EveryInjectedFaultPreservesTheFingerprint) {
  // The acceptance sweep: with any single injected fault the run must
  // complete with the skeleton fingerprint (adjacency + sepsets +
  // removal depths) and the executed-test count bit-identical to the
  // sequential reference, at 2 and 4 ranks. Deadlines are tightened so
  // the wedge/delay/truncate faults trip the per-frame deadline in test
  // time rather than the 120 s default.
  const fuzz::FuzzInstance instance = fuzz::make_instance(2);
  std::int64_t reference_tests = 0;
  const fuzz::SkeletonFingerprint reference =
      sequential_fingerprint(instance, &reference_tests);
  const struct {
    const char* schedule;
    bool expect_events;
  } cases[] = {
      {"kill@rank=1,depth=1", true},
      {"kill@rank=0,depth=0", true},
      {"wedge@rank=0,depth=1", true},
      {"corrupt-frame@rank=1,depth=0;seed=7", true},
      {"truncate-frame@rank=1,depth=1", true},
      {"delay-frame@rank=0,depth=1,ms=900", true},
      // The connection-shaped faults: the channel dies while waitpid
      // still says the rank is running (drop-conn), or dies mid-frame
      // leaving a half-written record behind (partial-write) — EOF with
      // a live pid must recover exactly like a death.
      {"drop-conn@rank=1,depth=1", true},
      {"partial-write@rank=1,depth=1", true},
      // Slow but inside the deadline: must NOT trigger recovery.
      {"slow-rank@rank=0,depth=0,ms=10", false},
  };
  for (const auto& fault : cases) {
    for (const std::int32_t ranks : {2, 4}) {
      PcOptions options = process_options(ranks);
      options.fault_schedule = fault.schedule;
      options.frame_deadline_ms = 400;
      options.frame_retry_limit = 4;
      options.frame_retry_backoff_ms = 5;
      const FaultRun run = run_process(instance, options);
      EXPECT_TRUE(run.fingerprint == reference)
          << "schedule=" << fault.schedule
          << " ranks=" << ranks << ": "
          << fuzz::describe_divergence(reference, run.fingerprint,
                                       instance.data.num_vars());
      EXPECT_EQ(run.result.total_ci_tests, reference_tests)
          << "schedule=" << fault.schedule
          << " ranks=" << ranks;
      EXPECT_EQ(!run.events.empty(), fault.expect_events)
          << "schedule=" << fault.schedule
          << " ranks=" << ranks << "\n"
          << describe_events(run.events);
    }
  }
}

TEST(ProcessEngine, DoubleRankDeathInOneDepthRecoversBothRanks) {
  const fuzz::FuzzInstance instance = fuzz::make_instance(3);
  const fuzz::SkeletonFingerprint reference = sequential_fingerprint(instance);
  PcOptions options = process_options(2);
  options.fault_schedule = "kill@rank=0,depth=1;kill@rank=1,depth=1";
  const FaultRun run = run_process(instance, options);
  EXPECT_TRUE(run.fingerprint == reference) << fuzz::describe_divergence(
      reference, run.fingerprint, instance.data.num_vars());
  EXPECT_TRUE(has_action(run.events, RecoveryAction::kRespawn, 0))
      << describe_events(run.events);
  EXPECT_TRUE(has_action(run.events, RecoveryAction::kRespawn, 1))
      << describe_events(run.events);
}

TEST(ProcessEngine, DeathAtDepthZeroBeforeAnyBarrierRecovers) {
  // The respawned rank replays a checkpoint log holding exactly one
  // empty batch (depth 0 broadcasts no removals) — the degenerate replay
  // that must still leave its replica equal to the complete graph.
  const fuzz::FuzzInstance instance = fuzz::make_instance(5);
  const fuzz::SkeletonFingerprint reference = sequential_fingerprint(instance);
  PcOptions options = process_options(2);
  options.fault_schedule = "kill@rank=1,depth=0";
  const FaultRun run = run_process(instance, options);
  EXPECT_TRUE(run.fingerprint == reference) << fuzz::describe_divergence(
      reference, run.fingerprint, instance.data.num_vars());
  ASSERT_FALSE(run.depth_stats.empty());
  EXPECT_GT(run.depth_stats.front().recoveries, 0)
      << describe_events(run.events);
}

TEST(ProcessEngine, RespawnedRankDyingDuringRecoveryUsesTheNextRestart) {
  // gen=1 events target the first respawn: the replacement dies while
  // re-running the replayed depth and a second respawn finishes it.
  const fuzz::FuzzInstance instance = fuzz::make_instance(2);
  const fuzz::SkeletonFingerprint reference = sequential_fingerprint(instance);
  PcOptions options = process_options(2);
  options.max_rank_restarts = 2;
  options.fault_schedule = "kill@rank=1,depth=1;kill@rank=1,depth=1,gen=1";
  const FaultRun run = run_process(instance, options);
  EXPECT_TRUE(run.fingerprint == reference) << fuzz::describe_divergence(
      reference, run.fingerprint, instance.data.num_vars());
  const auto respawns = std::count_if(
      run.events.begin(), run.events.end(), [](const RecoveryEvent& event) {
        return event.action == RecoveryAction::kRespawn;
      });
  EXPECT_EQ(respawns, 2) << describe_events(run.events);
}

TEST(ProcessEngine, RestartBudgetExhaustionRepartitionsOntoSurvivors) {
  // max_rank_restarts=0: a dead rank goes straight to re-partition; its
  // shard runs on the survivor for this and every later depth, and the
  // result is still bit-identical.
  const fuzz::FuzzInstance instance = fuzz::make_instance(2);
  std::int64_t reference_tests = 0;
  const fuzz::SkeletonFingerprint reference =
      sequential_fingerprint(instance, &reference_tests);
  PcOptions options = process_options(2);
  options.max_rank_restarts = 0;
  options.fault_schedule = "kill@rank=1,depth=1";
  const FaultRun run = run_process(instance, options);
  EXPECT_TRUE(run.fingerprint == reference) << fuzz::describe_divergence(
      reference, run.fingerprint, instance.data.num_vars());
  EXPECT_EQ(run.result.total_ci_tests, reference_tests);
  EXPECT_TRUE(has_action(run.events, RecoveryAction::kRepartition, 1))
      << describe_events(run.events);
  EXPECT_FALSE(has_action(run.events, RecoveryAction::kRespawn))
      << describe_events(run.events);
}

TEST(ProcessEngine, InitialSpawnFailureDegradesToTheInProcessEngine) {
  // spawn-fail with gen=0 declares the whole first fork failed: the run
  // must complete in-process (the degrade rung) with identical results.
  const fuzz::FuzzInstance instance = fuzz::make_instance(7);
  std::int64_t reference_tests = 0;
  const fuzz::SkeletonFingerprint reference =
      sequential_fingerprint(instance, &reference_tests);
  PcOptions options = process_options(2);
  options.fault_schedule = "spawn-fail";
  const FaultRun run = run_process(instance, options);
  EXPECT_TRUE(run.fingerprint == reference) << fuzz::describe_divergence(
      reference, run.fingerprint, instance.data.num_vars());
  EXPECT_EQ(run.result.total_ci_tests, reference_tests);
  EXPECT_TRUE(has_action(run.events, RecoveryAction::kDegrade))
      << describe_events(run.events);
}

TEST(ProcessEngine, RespawnFailureMidRunDegradesAndStillFinishes) {
  // The rank dies, and its respawn is declared failed: the supervisor
  // finishes the depth locally and hands the rest of the run to the
  // in-process edge-parallel engine — completion, not an abort.
  const fuzz::FuzzInstance instance = fuzz::make_instance(2);
  std::int64_t reference_tests = 0;
  const fuzz::SkeletonFingerprint reference =
      sequential_fingerprint(instance, &reference_tests);
  PcOptions options = process_options(2);
  options.fault_schedule = "kill@rank=1,depth=1;spawn-fail@rank=1,gen=1";
  const FaultRun run = run_process(instance, options);
  EXPECT_TRUE(run.fingerprint == reference) << fuzz::describe_divergence(
      reference, run.fingerprint, instance.data.num_vars());
  EXPECT_EQ(run.result.total_ci_tests, reference_tests);
  EXPECT_TRUE(has_action(run.events, RecoveryAction::kDegrade, 1))
      << describe_events(run.events);
}

TEST(ProcessEngine, RecoveryEventsAccessorSeesOnlyProcessEngines) {
  const auto sequential = EngineRegistry::instance().create("fastbns-seq");
  EXPECT_EQ(process_engine_recovery_events(*sequential), nullptr);
  const fuzz::FuzzInstance instance = fuzz::make_instance(2);
  // A fault-free run reports an empty (but present) event list.
  const FaultRun clean = run_process(instance, process_options(2));
  EXPECT_TRUE(clean.events.empty()) << describe_events(clean.events);
  for (const ProcessDepthStats& stats : clean.depth_stats) {
    EXPECT_EQ(stats.recoveries, 0);
  }
}

TEST(ProcessEngine, ChildExceptionsPropagateWithTheirMessage) {
  // A CI test that throws inside a rank must surface in the parent as a
  // runtime_error carrying the child's message — the kTagError path —
  // not as a mysterious rank death.
  class FailingTest final : public CiTest {
   public:
    CiResult test(VarId, VarId, std::span<const VarId>) override {
      throw std::runtime_error("synthetic rank-side CI failure");
    }
    [[nodiscard]] std::unique_ptr<CiTest> clone() const override {
      return std::make_unique<FailingTest>();
    }
  };
  const FailingTest test;
  try {
    (void)learn_skeleton(8, test, process_options(2));
    FAIL() << "expected the child's exception to propagate";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("synthetic rank-side CI failure"),
              std::string::npos)
        << error.what();
  }
}

TEST(ProcessEngine, RankResolutionRulesAreStable) {
  EXPECT_EQ(resolve_rank_count(3), 3);
  EXPECT_EQ(resolve_rank_count(1), 1);
  // Auto: two ranks, or one on a single-cpu box — never zero.
  const std::int32_t auto_ranks = resolve_rank_count(0);
  EXPECT_GE(auto_ranks, 1);
  EXPECT_LE(auto_ranks, 2);
  EXPECT_EQ(resolve_rank_threads(5, 2, 0), 5);
  // Explicit budget 8 over 4 ranks → 2 threads each; a budget smaller
  // than the rank count still gives every rank one thread.
  EXPECT_EQ(resolve_rank_threads(0, 4, 8), 2);
  EXPECT_EQ(resolve_rank_threads(0, 8, 4), 1);
}

TEST(ProcessEngine, DepthStatsAccessorSeesOnlyProcessEngines) {
  const auto process = EngineRegistry::instance().create("process");
  ASSERT_NE(process, nullptr);
  const auto sequential = EngineRegistry::instance().create("fastbns-seq");
  EXPECT_EQ(process_engine_depth_stats(*sequential), nullptr);
  // A fresh process engine has an empty (but present) stats vector; after
  // a run it carries one entry per executed depth with the depth's test
  // count.
  const auto* empty_stats = process_engine_depth_stats(*process);
  ASSERT_NE(empty_stats, nullptr);
  EXPECT_TRUE(empty_stats->empty());
  const fuzz::FuzzInstance instance = fuzz::make_instance(5);
  const DiscreteCiTest test(instance.data, CiTestOptions{});
  const SkeletonResult result = learn_skeleton(
      instance.data.num_vars(), test, process_options(2), *process);
  const auto* stats = process_engine_depth_stats(*process);
  ASSERT_NE(stats, nullptr);
  ASSERT_EQ(stats->size(), result.depth_stats.size());
  std::int64_t total = 0;
  for (std::size_t d = 0; d < stats->size(); ++d) {
    EXPECT_EQ((*stats)[d].depth, result.depth_stats[d].depth);
    EXPECT_EQ((*stats)[d].ci_tests, result.depth_stats[d].ci_tests);
    EXPECT_GE((*stats)[d].seconds, (*stats)[d].gather_seconds);
    total += (*stats)[d].ci_tests;
  }
  EXPECT_EQ(total, result.total_ci_tests);
}

}  // namespace
}  // namespace fastbns
