// Helpers shared by the concrete skeleton engines: per-thread CiTest
// clone caching, the materialized-set inner loop of the naive/ablation
// paths, and the sequential depth runner the three sequential-kernel
// engines delegate to.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/skeleton_engine.hpp"
#include "pc/edge_work.hpp"
#include "stats/ci_test.hpp"

namespace fastbns {

/// Lazily-built CiTest clones, one per worker, reused across the depths
/// of a run. Cached entries are keyed on the prototype's address, its
/// dynamic type, and its configuration fingerprint
/// (CiTest::config_token()), so a *reconfigured* prototype at a recycled
/// address re-clones instead of silently reusing stale clones. The cache
/// must still be reset() between runs: a same-configuration new prototype
/// at a recycled address is indistinguishable by design, and the old
/// clones would carry the previous run's counters and workspaces.
class ThreadLocalTests {
 public:
  /// Ensures `count` clones of `prototype` and returns them. The returned
  /// reference is invalidated by the next acquire() call.
  std::vector<std::unique_ptr<CiTest>>& acquire(const CiTest& prototype,
                                                std::size_t count);

  /// Drops all cached clones (called at run start).
  void reset() noexcept;

 private:
  const CiTest* cloned_from_ = nullptr;
  /// Dynamic-type hash ^ config_token() of the cached prototype.
  std::uint64_t cloned_fingerprint_ = 0;
  std::vector<std::unique_ptr<CiTest>> clones_;
};

/// Base of the engines that keep per-thread CiTest clones: wires the
/// driver's prepare_run() to the cache reset so no engine can forget it.
/// Engines with additional per-run state (the async engine's next-depth
/// handoff) drop it in on_prepare_run().
class ClonePoolEngine : public SkeletonEngine {
 public:
  void prepare_run() final {
    tests_.reset();
    on_prepare_run();
  }

 protected:
  /// Run-start hook for derived engines; the clone cache is already
  /// reset when it runs.
  virtual void on_prepare_run() {}

  ThreadLocalTests tests_;
};

/// Depth 0 for the pool engines: each edge needs exactly one marginal
/// test, so the workload is known and balanced up front and a static
/// edge-level partition is optimal (the paper's prescription for depth
/// zero). Shared by the CI-level and async engines. Returns the number
/// of CI tests executed.
std::int64_t run_depth_zero_edge_parallel(
    std::vector<EdgeWork>& works,
    std::vector<std::unique_ptr<CiTest>>& clones);

/// Indices of the works with pending tests — the dynamic pool's initial
/// stack; its size is also the pool's outstanding count (works without
/// tests never enter the pool).
[[nodiscard]] std::vector<std::int64_t> pending_work_indices(
    const std::vector<EdgeWork>& works);

/// Materialized-set inner loop: conditioning sets are enumerated into a
/// flat buffer before any test runs (extra memory + an extra enumeration
/// pass — the strategy the paper's on-the-fly generation replaces). The
/// naive baseline additionally recomputes the endpoint codes on every
/// test (use_group_protocol = false).
std::int64_t process_materialized(EdgeWork& work, std::int32_t depth,
                                  CiTest& test, bool use_group_protocol);

/// One depth of the sequential kernel, shared by the naive-seq,
/// fastbns-seq and sample-parallel engines. `grouped` says whether works
/// fuse both edge directions; when false the classic PC-stable skip
/// applies: the (y, x) direction is skipped once the (x, y) direction
/// removed the edge within this depth. The partner is identified by its
/// endpoint ids — a preceding work is only "the other direction" when its
/// (x, y) equals this work's (y, x) — so reordered or filtered work lists
/// can never skip an unrelated edge (or run a removed edge's second
/// direction). `materialized` selects the flat-buffer strategy over
/// on-the-fly unranking.
std::int64_t run_sequential_depth(std::vector<EdgeWork>& works,
                                  std::int32_t depth, CiTest& test,
                                  bool grouped, bool materialized,
                                  bool use_group_protocol);

}  // namespace fastbns
