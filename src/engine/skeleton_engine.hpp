// The execution-strategy seam of skeleton discovery.
//
// All engines share one semantics — PC-stable over the canonical CI-test
// order — and differ only in *how* the pending tests of a depth are
// executed (sequentially, edge-parallel, sample-parallel, or through the
// dynamic CI-level work pool of Section IV-B). The depth loop, graph and
// sepset bookkeeping live in the driver (learn_skeleton); an engine sees
// exactly one depth's work list at a time.
//
// Engines are stateful (they cache per-thread CiTest clones across
// depths), so one instance serves one learn_skeleton run at a time.
// Concrete engines live in their own translation units under src/engine/
// and are constructed through the EngineRegistry (engine_registry.hpp).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "pc/edge_work.hpp"
#include "pc/pc_options.hpp"
#include "stats/ci_test.hpp"

namespace fastbns {

class SkeletonEngine {
 public:
  virtual ~SkeletonEngine() = default;

  /// Called by the driver once per run, before the first depth. Engines
  /// drop state cached from a previous run here (e.g. per-thread CiTest
  /// clones), so reusing an engine instance across runs is safe even
  /// when a new prototype lands at a recycled address.
  virtual void prepare_run() {}

  /// Runs the pending CI tests of one depth over `works` (built by
  /// build_depth_works from the driver's graph snapshot). The engine owns
  /// only test execution: it marks works removed and fills their sepsets;
  /// the driver commits those outcomes to the graph afterwards.
  /// `prototype` is cloned per worker thread on first use. Returns the
  /// number of CI tests executed.
  virtual std::int64_t run_depth(std::vector<EdgeWork>& works,
                                 std::int32_t depth, const CiTest& prototype,
                                 const PcOptions& options) = 0;

  /// Depth-handoff seam for engines that overlap next-depth work-list
  /// construction with the current depth's tail (the async engine). The
  /// driver calls it right before it would snapshot `depth`'s work list;
  /// an engine that prepared the list during the previous run_depth fills
  /// `works` — it must equal build_depth_works(graph, depth, grouped)
  /// exactly, because `graph` already has the previous depth's removals
  /// committed — and returns true. The default (every synchronous
  /// engine) returns false and the driver builds from scratch.
  [[nodiscard]] virtual bool take_prepared_depth_works(
      std::int32_t depth, const UndirectedGraph& graph, bool grouped,
      std::vector<EdgeWork>& works) {
    (void)depth;
    (void)graph;
    (void)grouped;
    (void)works;
    return false;
  }

  /// Canonical engine name; equals to_string(kind) for registry engines.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Whether build_depth_works may fuse both directions of an edge into
  /// one work unit (Section IV-C endpoint grouping). The naive baseline
  /// returns false: it models the classic ordered-pair traversal.
  [[nodiscard]] virtual bool supports_endpoint_grouping() const noexcept {
    return true;
  }

  /// Whether CI tests should be constructed with sample-level parallel
  /// contingency-table builds (the sample-parallel scheme of Section
  /// IV-A). Consulted by learn_structure and the bench runner when they
  /// configure the test for this engine.
  [[nodiscard]] virtual bool wants_sample_parallel_test() const noexcept {
    return false;
  }

  /// Whether the engine may build tables sample-parallel at all; defaults
  /// to wants_sample_parallel_test(). Consulted by the driver's up-front
  /// sanity check: capping every permitted table below the thread count
  /// would make such builds pure atomic contention.
  [[nodiscard]] virtual bool uses_sample_parallel_builds() const noexcept {
    return wants_sample_parallel_test();
  }
};

}  // namespace fastbns
