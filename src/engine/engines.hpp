// Factories for the builtin engines: the five paper engines plus the
// async and process extensions. Each is defined in its own
// translation unit under src/engine/; the EngineRegistry constructor is
// their only in-tree caller — everything else selects engines by name or
// EngineKind through the registry.
#pragma once

#include <memory>

#include "engine/skeleton_engine.hpp"

namespace fastbns {

/// bnlearn-like baseline: ordered edge directions processed separately,
/// conditioning sets materialized ahead of time, no endpoint-code reuse.
[[nodiscard]] std::unique_ptr<SkeletonEngine> make_naive_sequential_engine();

/// Fast-BNS-seq: endpoint grouping + on-the-fly sets + group code reuse.
[[nodiscard]] std::unique_ptr<SkeletonEngine> make_fast_sequential_engine();

/// Edge-level parallelism (Section IV-A): static edge partition per depth
/// over the optimized kernel.
[[nodiscard]] std::unique_ptr<SkeletonEngine> make_edge_parallel_engine();

/// Sample-level parallelism (Section IV-A): sequential edge loop; the
/// parallelism lives inside the CI test's contingency-table build.
[[nodiscard]] std::unique_ptr<SkeletonEngine> make_sample_parallel_engine();

/// Fast-BNS-par (Section IV-B): CI-level parallelism with the dynamic
/// work pool.
[[nodiscard]] std::unique_ptr<SkeletonEngine> make_ci_parallel_engine();

/// Async depth-overlap extension: CI-level pool scheduling where threads
/// idling in a depth's tail prepare the next depth's work list
/// (per-settled-edge candidate sets + EdgeWork records), handed to the
/// driver through take_prepared_depth_works.
[[nodiscard]] std::unique_ptr<SkeletonEngine> make_async_engine();

/// Multi-process rank-partition extension: forked worker ranks over a
/// MAP_SHARED dataset segment, each owning the edges whose lower endpoint
/// maps to its variable shard; the depth barrier is an allreduce of
/// removal sets + sepsets over pipe frames (src/ipc/) — bit-identical to
/// edge-parallel, supervised so a dead rank errors instead of hanging.
[[nodiscard]] std::unique_ptr<SkeletonEngine> make_process_engine();

}  // namespace fastbns
