// The Fast-BNS CI-level parallel engine (Section IV-B).
//
// Depth 0 uses plain edge-level parallelism: each edge needs exactly one
// marginal test, so the workload is known and balanced up front. For
// depth >= 1, the dynamic work pool schedules groups of gs CI tests; a
// thread that finishes its claim immediately pops another edge, so no
// thread idles while tests remain — the paper's load-balancing claim.
#include <thread>

#include "common/omp_utils.hpp"
#include "engine/engine_common.hpp"
#include "engine/engines.hpp"
#include "engine/skeleton_engine.hpp"
#include "pc/work_pool.hpp"

namespace fastbns {
namespace {

/// Depth 0: each edge needs exactly one marginal test, so the workload is
/// known and balanced up front and a static edge-level partition is
/// optimal (the paper's prescription for depth zero).
std::int64_t run_depth_zero_edge_parallel(
    std::vector<EdgeWork>& works,
    std::vector<std::unique_ptr<CiTest>>& clones) {
  std::int64_t tests = 0;
#pragma omp parallel for schedule(static) reduction(+ : tests)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(works.size()); ++i) {
    EdgeWork& work = works[i];
    if (work.total_tests() == 0) continue;
    tests += process_work_tests(work, /*depth=*/0, 1,
                                *clones[current_thread()],
                                /*use_group_protocol=*/true);
  }
  return tests;
}

/// Indices of the works with pending tests — the pool's initial stack;
/// its size is also the pool's outstanding count (works without tests
/// never enter the pool).
std::vector<std::int64_t> pending_work_indices(
    const std::vector<EdgeWork>& works) {
  std::vector<std::int64_t> indices;
  indices.reserve(works.size());
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(works.size()); ++i) {
    if (works[i].total_tests() > 0) indices.push_back(i);
  }
  return indices;
}

class CiParallelEngine final : public ClonePoolEngine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "fastbns-par(ci-level)";
  }

  std::int64_t run_depth(std::vector<EdgeWork>& works, std::int32_t depth,
                         const CiTest& prototype,
                         const PcOptions& options) override {
    const int max_threads = hardware_threads();
    std::vector<std::unique_ptr<CiTest>>& clones =
        tests_.acquire(prototype, static_cast<std::size_t>(max_threads));

    std::int64_t tests = 0;

    if (depth == 0) {
      return run_depth_zero_edge_parallel(works, clones);
    }

    std::vector<std::int64_t> initial = pending_work_indices(works);
    const auto outstanding = static_cast<std::int64_t>(initial.size());
    WorkPool pool(std::move(initial), outstanding);

    const auto gs = static_cast<std::uint64_t>(options.group_size);
    // Groups run per claim: one pop and at most one push per 8 groups
    // amortize the lock (the paper pops t edges per round), and because
    // all 8 groups test the same edge, the endpoint codes begin_group
    // computed stay cached in this thread's clone (Section IV-C). Small
    // enough that the tail of a depth still load-balances.
    constexpr int kGroupsPerClaim = 8;

#pragma omp parallel reduction(+ : tests)
    {
      CiTest& test = *clones[current_thread()];
      while (!pool.all_complete()) {
        const std::optional<std::int64_t> index = pool.try_pop();
        if (!index.has_value()) {
          // Pool momentarily dry but some edges are still being processed
          // and may return; yield instead of spinning hot.
          std::this_thread::yield();
          continue;
        }
        // The holder owns `work` exclusively: no atomics on its fields.
        EdgeWork& work = works[*index];
        for (int group = 0; group < kGroupsPerClaim && !work.finished();
             ++group) {
          tests += options.eager_group_stop
                       ? process_work_tests_early_stop(
                             work, depth, gs, test,
                             /*use_group_protocol=*/true)
                       : process_work_tests(work, depth, gs, test,
                                            /*use_group_protocol=*/true);
        }
        if (work.finished()) {
          pool.mark_complete();
        } else {
          pool.push(*index);
        }
      }
    }
    return tests;
  }
};

}  // namespace

std::unique_ptr<SkeletonEngine> make_ci_parallel_engine() {
  return std::make_unique<CiParallelEngine>();
}

}  // namespace fastbns
