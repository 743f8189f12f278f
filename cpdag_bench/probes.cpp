#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <optional>

#include "engine/engine_registry.hpp"
#include "stats/ci_test_factory.hpp"

namespace cpdag_bench {
namespace {

// SlotTable layout: an int64 slot cursor in a 64-byte header, then
// kSlots x kDepths x {tests, busy_ns} int64 cells.
constexpr std::size_t kHeaderBytes = 64;
constexpr int kFields = 2;
constexpr std::size_t kTableBytes =
    kHeaderBytes + sizeof(std::int64_t) * SlotTable::kSlots *
                       SlotTable::kDepths * kFields;

int clamp_depth(std::size_t depth) noexcept {
  return static_cast<int>(
      std::min<std::size_t>(depth, SlotTable::kDepths - 1));
}

}  // namespace

double trace_now() noexcept {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

SlotTable::SlotTable()
    : region_(fastbns::SharedMemoryRegion::create(kTableBytes)) {}

std::int64_t* SlotTable::cell(int slot, int depth, int field) const noexcept {
  auto* cells = reinterpret_cast<std::int64_t*>(region_.data() + kHeaderBytes);
  return cells + (static_cast<std::size_t>(slot) * kDepths +
                  static_cast<std::size_t>(depth)) *
                     kFields +
         static_cast<std::size_t>(field);
}

void SlotTable::reset() noexcept {
  std::fill(region_.data(), region_.data() + region_.size(), std::byte{0});
}

int SlotTable::claim_slot() noexcept {
  std::atomic_ref<std::int64_t> cursor(
      *reinterpret_cast<std::int64_t*>(region_.data()));
  const std::int64_t slot = cursor.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(std::min<std::int64_t>(slot, kSlots - 1));
}

void SlotTable::add(int slot, int depth, std::int64_t tests,
                    std::int64_t busy_ns) noexcept {
  std::atomic_ref<std::int64_t>(*cell(slot, depth, 0))
      .fetch_add(tests, std::memory_order_relaxed);
  std::atomic_ref<std::int64_t>(*cell(slot, depth, 1))
      .fetch_add(busy_ns, std::memory_order_relaxed);
}

int SlotTable::slots_used() const noexcept {
  const std::int64_t cursor =
      std::atomic_ref<std::int64_t>(
          *reinterpret_cast<std::int64_t*>(region_.data()))
          .load(std::memory_order_relaxed);
  return static_cast<int>(std::min<std::int64_t>(cursor, kSlots));
}

std::int64_t SlotTable::tests(int slot, int depth) const noexcept {
  return std::atomic_ref<std::int64_t>(*cell(slot, depth, 0))
      .load(std::memory_order_relaxed);
}

std::int64_t SlotTable::busy_ns(int slot, int depth) const noexcept {
  return std::atomic_ref<std::int64_t>(*cell(slot, depth, 1))
      .load(std::memory_order_relaxed);
}

void TupleLog::record(int slot, VarId x, VarId y, std::span<const VarId> z) {
  std::vector<VarId>& out = per_slot_[static_cast<std::size_t>(slot)];
  out.push_back(x);
  out.push_back(y);
  out.push_back(static_cast<VarId>(z.size()));
  out.insert(out.end(), z.begin(), z.end());
}

void TupleLog::clear() {
  for (std::vector<VarId>& list : per_slot_) list.clear();
}

TracedCiTest::TracedCiTest(std::unique_ptr<fastbns::CiTest> inner,
                           SlotTable& table, TupleLog* log)
    : inner_(std::move(inner)), table_(&table), log_(log) {}

void TracedCiTest::account(Clock::time_point start, std::int32_t depth,
                           std::int64_t tests_before) {
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count() +
      pending_ns_;
  pending_ns_ = 0;
  const std::int64_t ran = inner_->tests_performed() - tests_before;
  tests_performed_ += ran;
  if (slot_ < 0) slot_ = table_->claim_slot();
  table_->add(slot_, clamp_depth(static_cast<std::size_t>(depth)), ran, ns);
}

fastbns::CiResult TracedCiTest::test(VarId x, VarId y,
                                     std::span<const VarId> z) {
  const std::int64_t before = inner_->tests_performed();
  const auto start = Clock::now();
  const fastbns::CiResult result = inner_->test(x, y, z);
  account(start, static_cast<std::int32_t>(z.size()), before);
  if (log_ != nullptr) log_->record(slot_, x, y, z);
  return result;
}

void TracedCiTest::begin_group(VarId x, VarId y) {
  const auto start = Clock::now();
  CiTest::begin_group(x, y);
  inner_->begin_group(x, y);
  pending_ns_ +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count();
}

fastbns::CiResult TracedCiTest::test_in_group(std::span<const VarId> z) {
  const std::int64_t before = inner_->tests_performed();
  const auto start = Clock::now();
  const fastbns::CiResult result = inner_->test_in_group(z);
  account(start, static_cast<std::int32_t>(z.size()), before);
  if (log_ != nullptr) log_->record(slot_, group_x_, group_y_, z);
  return result;
}

void TracedCiTest::test_batch_in_group(std::span<const VarId> flat_sets,
                                       std::int32_t depth,
                                       std::span<fastbns::CiResult> results) {
  const std::int64_t before = inner_->tests_performed();
  const auto start = Clock::now();
  inner_->test_batch_in_group(flat_sets, depth, results);
  account(start, depth, before);
  if (log_ == nullptr) return;
  const auto d = static_cast<std::size_t>(depth);
  for (std::size_t i = 0; i < results.size(); ++i) {
    log_->record(slot_, group_x_, group_y_, flat_sets.subspan(i * d, d));
  }
}

bool TracedCiTest::set_sample_parallel(bool enabled) {
  return inner_->set_sample_parallel(enabled);
}

bool TracedCiTest::sample_parallel_build() const noexcept {
  return inner_->sample_parallel_build();
}

fastbns::Count TracedCiTest::workload_samples() const noexcept {
  return inner_->workload_samples();
}

std::int64_t TracedCiTest::workload_states(VarId v) const noexcept {
  return inner_->workload_states(v);
}

std::span<const std::byte> TracedCiTest::workload_column_bytes(
    VarId v) const noexcept {
  return inner_->workload_column_bytes(v);
}

std::size_t TracedCiTest::table_cell_cap() const noexcept {
  return inner_->table_cell_cap();
}

std::string_view TracedCiTest::table_builder_name() const noexcept {
  return inner_->table_builder_name();
}

std::uint64_t TracedCiTest::config_token() const noexcept {
  return inner_->config_token();
}

std::unique_ptr<fastbns::CiTest> TracedCiTest::clone() const {
  return std::make_unique<TracedCiTest>(inner_->clone(), *table_, log_);
}

void TimedEngine::prepare_run() {
  spans_.clear();
  inner_->prepare_run();
}

std::int64_t TimedEngine::run_depth(std::vector<fastbns::EdgeWork>& works,
                                    std::int32_t depth,
                                    const fastbns::CiTest& prototype,
                                    const fastbns::PcOptions& options) {
  DepthSpan span;
  span.depth = depth;
  span.start_s = trace_now();
  span.tests = inner_->run_depth(works, depth, prototype, options);
  span.end_s = trace_now();
  spans_.push_back(span);
  return span.tests;
}

bool TimedEngine::take_prepared_depth_works(
    std::int32_t depth, const fastbns::UndirectedGraph& graph, bool grouped,
    std::vector<fastbns::EdgeWork>& works) {
  return inner_->take_prepared_depth_works(depth, graph, grouped, works);
}

std::string_view TimedEngine::name() const noexcept { return inner_->name(); }

bool TimedEngine::supports_endpoint_grouping() const noexcept {
  return inner_->supports_endpoint_grouping();
}

bool TimedEngine::wants_sample_parallel_test() const noexcept {
  return inner_->wants_sample_parallel_test();
}

bool TimedEngine::uses_sample_parallel_builds() const noexcept {
  return inner_->uses_sample_parallel_builds();
}

ProbedLearn probed_learn(const fastbns::Dataset& data,
                         const fastbns::PcOptions& options,
                         fastbns::SkeletonEngine& engine, SlotTable& slots,
                         TupleLog* log) {
  slots.reset();
  if (log != nullptr) log->clear();
  ProbedLearn out;
  out.start_s = trace_now();
  const fastbns::EngineInfo* info =
      fastbns::EngineRegistry::instance().find(engine.name());
  std::optional<fastbns::SharedDatasetSegment> segment;
  const fastbns::Dataset* active = &data;
  if (info != nullptr && info->kind == fastbns::EngineKind::kProcess) {
    segment.emplace(fastbns::SharedDatasetSegment::create(data));
    active = &segment->dataset();
  }
  fastbns::CiTestRequest request;
  request.ci_test = options.ci_test;
  request.alpha = options.alpha;
  request.max_cells = options.max_table_cells;
  request.table_builder = options.table_builder;
  request.sample_parallel = engine.wants_sample_parallel_test();
  const TracedCiTest prototype(fastbns::make_ci_test(*active, request), slots,
                               log);
  TimedEngine timed(engine);
  out.skeleton_start_s = trace_now();
  out.skeleton =
      fastbns::learn_skeleton(active->num_vars(), prototype, options, timed);
  out.skeleton_end_s = trace_now();
  out.cpdag = fastbns::orient_skeleton(out.skeleton.graph, out.skeleton.sepsets,
                                       &out.orientation);
  out.end_s = trace_now();
  out.depths = timed.spans();
  return out;
}

std::uint64_t cpdag_digest(const fastbns::Pdag& cpdag) {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffU;
      hash *= 1099511628211ULL;
    }
  };
  mix(static_cast<std::uint64_t>(cpdag.num_nodes()));
  for (const auto& edges : {cpdag.directed_edges(), cpdag.undirected_edges()}) {
    std::vector<std::pair<VarId, VarId>> sorted = edges;
    std::sort(sorted.begin(), sorted.end());
    mix(sorted.size());
    for (const auto& [u, v] : sorted) {
      mix(static_cast<std::uint64_t>(u));
      mix(static_cast<std::uint64_t>(v));
    }
  }
  return hash;
}

}  // namespace cpdag_bench
