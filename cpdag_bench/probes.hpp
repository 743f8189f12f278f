// Outside-in probes for the CSV -> CPDAG benchmark. Every layer is timed
// through a public seam of the library, never from inside it:
//
//   * TracedCiTest wraps the CI-test prototype handed to learn_skeleton.
//     Its clones count tests and time every call per (clone, depth) into
//     a SlotTable, which lives in MAP_SHARED memory so clones made inside
//     forked process-engine ranks report to the parent process too.
//   * TimedEngine wraps a registry engine and times each run_depth.
//   * TupleLog records the (x, y, S) of every test a clone ran, so the
//     counting kernel can be replayed single-threaded afterwards.
//
// Both wrappers forward every virtual of their interface, so a traced
// learn runs the same tests and returns the same CPDAG as an untraced one
// (test_probes.cpp checks this).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "dataset/dataset.hpp"
#include "engine/skeleton_engine.hpp"
#include "graph/pdag.hpp"
#include "ipc/shared_dataset.hpp"
#include "pc/orientation.hpp"
#include "pc/skeleton.hpp"
#include "stats/ci_test.hpp"

namespace cpdag_bench {

using fastbns::VarId;

/// Seconds since the first call in this process: the time base of every
/// span the benchmark records.
[[nodiscard]] double trace_now() noexcept;

/// Per-(clone, depth) test counts and busy nanoseconds in memory shared
/// with forked children. Clones claim a slot on their first test.
class SlotTable {
 public:
  static constexpr int kSlots = 256;
  static constexpr int kDepths = 32;

  SlotTable();
  SlotTable(const SlotTable&) = delete;
  SlotTable& operator=(const SlotTable&) = delete;

  /// Zeroes every counter and frees every slot. Call between learns,
  /// never while a learn is running.
  void reset() noexcept;
  /// A fresh slot; the last slot absorbs any overflow.
  [[nodiscard]] int claim_slot() noexcept;
  void add(int slot, int depth, std::int64_t tests,
           std::int64_t busy_ns) noexcept;

  [[nodiscard]] int slots_used() const noexcept;
  [[nodiscard]] std::int64_t tests(int slot, int depth) const noexcept;
  [[nodiscard]] std::int64_t busy_ns(int slot, int depth) const noexcept;

 private:
  [[nodiscard]] std::int64_t* cell(int slot, int depth, int field) const noexcept;
  fastbns::SharedMemoryRegion region_;
};

/// Tested tuples, one flat record per test: x, y, |S|, S... Each slot's
/// list is written only by the clone holding that slot.
class TupleLog {
 public:
  TupleLog() : per_slot_(SlotTable::kSlots) {}
  void record(int slot, VarId x, VarId y, std::span<const VarId> z);
  [[nodiscard]] const std::vector<std::vector<VarId>>& per_slot() const noexcept {
    return per_slot_;
  }
  void clear();

 private:
  std::vector<std::vector<VarId>> per_slot_;
};

/// Counting, timing and (optionally) recording wrapper around a CiTest.
class TracedCiTest final : public fastbns::CiTest {
 public:
  /// `table` (and `log`, when set) must outlive this test and its clones.
  TracedCiTest(std::unique_ptr<fastbns::CiTest> inner, SlotTable& table,
               TupleLog* log = nullptr);

  fastbns::CiResult test(VarId x, VarId y, std::span<const VarId> z) override;
  void begin_group(VarId x, VarId y) override;
  fastbns::CiResult test_in_group(std::span<const VarId> z) override;
  void test_batch_in_group(std::span<const VarId> flat_sets, std::int32_t depth,
                           std::span<fastbns::CiResult> results) override;
  bool set_sample_parallel(bool enabled) override;
  [[nodiscard]] bool sample_parallel_build() const noexcept override;
  [[nodiscard]] fastbns::Count workload_samples() const noexcept override;
  [[nodiscard]] std::int64_t workload_states(VarId v) const noexcept override;
  [[nodiscard]] std::span<const std::byte> workload_column_bytes(
      VarId v) const noexcept override;
  [[nodiscard]] std::size_t table_cell_cap() const noexcept override;
  [[nodiscard]] std::string_view table_builder_name() const noexcept override;
  [[nodiscard]] std::uint64_t config_token() const noexcept override;
  [[nodiscard]] std::unique_ptr<fastbns::CiTest> clone() const override;

 private:
  using Clock = std::chrono::steady_clock;
  /// Books one forwarded call that started at `start` into the slot
  /// table and mirrors the inner test counter.
  void account(Clock::time_point start, std::int32_t depth,
               std::int64_t tests_before);

  std::unique_ptr<fastbns::CiTest> inner_;
  SlotTable* table_;
  TupleLog* log_;
  int slot_ = -1;
  /// begin_group time, booked at the depth of the next test.
  std::int64_t pending_ns_ = 0;
};

/// Wall span of one run_depth call.
struct DepthSpan {
  std::int32_t depth = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t tests = 0;
};

/// Times each run_depth of a wrapped engine; forwards everything else.
class TimedEngine final : public fastbns::SkeletonEngine {
 public:
  /// `inner` must outlive this wrapper.
  explicit TimedEngine(fastbns::SkeletonEngine& inner) : inner_(&inner) {}

  void prepare_run() override;
  std::int64_t run_depth(std::vector<fastbns::EdgeWork>& works,
                         std::int32_t depth, const fastbns::CiTest& prototype,
                         const fastbns::PcOptions& options) override;
  [[nodiscard]] bool take_prepared_depth_works(
      std::int32_t depth, const fastbns::UndirectedGraph& graph, bool grouped,
      std::vector<fastbns::EdgeWork>& works) override;
  [[nodiscard]] std::string_view name() const noexcept override;
  [[nodiscard]] bool supports_endpoint_grouping() const noexcept override;
  [[nodiscard]] bool wants_sample_parallel_test() const noexcept override;
  [[nodiscard]] bool uses_sample_parallel_builds() const noexcept override;

  /// The spans of the last run, one per depth.
  [[nodiscard]] const std::vector<DepthSpan>& spans() const noexcept {
    return spans_;
  }

 private:
  fastbns::SkeletonEngine* inner_;
  std::vector<DepthSpan> spans_;
};

/// One learn through the probes, with the wall-clock marks of its phases.
struct ProbedLearn {
  fastbns::SkeletonResult skeleton;
  fastbns::Pdag cpdag{0};
  fastbns::OrientationStats orientation;
  std::vector<DepthSpan> depths;
  double start_s = 0.0;
  double skeleton_start_s = 0.0;
  double skeleton_end_s = 0.0;
  double end_s = 0.0;
};

/// learn_structure(data, options, engine) rebuilt from its public parts
/// with both probes inserted: the dataset segment it mounts for the
/// process engine, make_ci_test wrapped in a TracedCiTest, `engine`
/// wrapped in a TimedEngine, learn_skeleton, then orient_skeleton. Resets
/// `slots` (and `log`) first.
[[nodiscard]] ProbedLearn probed_learn(const fastbns::Dataset& data,
                                       const fastbns::PcOptions& options,
                                       fastbns::SkeletonEngine& engine,
                                       SlotTable& slots, TupleLog* log);

/// FNV-1a over the node count and the sorted directed and undirected
/// edge lists: equal digests mean equal CPDAGs.
[[nodiscard]] std::uint64_t cpdag_digest(const fastbns::Pdag& cpdag);

}  // namespace cpdag_bench
