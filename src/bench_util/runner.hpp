// Shared measurement wrapper: configures a CI test + engine pair the way
// the paper's comparisons do and times one skeleton run.
#pragma once

#include <cstdint>
#include <string>

#include "bench_util/workloads.hpp"
#include "pc/skeleton.hpp"

namespace fastbns {

struct EngineRunConfig {
  EngineKind engine = EngineKind::kCiParallel;
  /// Registry name driving engine construction when non-empty (see
  /// PcOptions::engine_name); set by engine_config_from_name.
  std::string engine_name;
  int threads = 0;
  std::int32_t group_size = 1;
  double alpha = 0.05;
  /// Contingency-table cell cap; defaults to the library default so
  /// bench runs can never silently diverge from PcOptions.
  std::size_t max_table_cells = PcOptions{}.max_table_cells;
  /// TableBuilder kernel name ("auto" = CPU-dispatched SIMD); forwarded
  /// to CiTestOptions::table_builder like PcOptions does.
  std::string table_builder = PcOptions{}.table_builder;
  /// Statistic name (see PcOptions::ci_test): "auto" matches the
  /// workload's dataset kind, so discrete benches keep the G^2 test and
  /// the Gaussian bench gets Fisher-z without per-bench wiring.
  std::string ci_test = PcOptions{}.ci_test;
  /// Covariance-builder kernel of the Gaussian statistic ("auto" =
  /// blocked); ignored by discrete runs, mirroring table_builder.
  std::string covariance_builder = "auto";
  /// Baseline knobs (bnlearn-style): strided data access, materialized
  /// conditioning sets, ungrouped edge directions.
  bool row_major = false;
  bool materialize_sets = false;
  bool group_endpoints = true;
  /// Build contingency tables sample-parallel (sample-level scheme).
  bool sample_parallel = false;
  /// Extension: first-accept early stop inside a gs-group (see PcOptions).
  bool eager_group_stop = false;
  /// Process-engine knobs (see PcOptions::rank_count/rank_threads):
  /// forked worker ranks and the std::thread team inside each; ignored
  /// by every other engine.
  std::int32_t rank_count = 0;
  std::int32_t rank_threads = 0;
  /// Fault-tolerance knobs (see PcOptions::max_rank_restarts /
  /// fault_schedule): the recovery-overhead rows inject deterministic
  /// rank deaths and measure the respawn+replay cost against the clean
  /// run at the same configuration.
  std::int32_t max_rank_restarts = PcOptions{}.max_rank_restarts;
  std::string fault_schedule;
};

struct EngineRunResult {
  double seconds = 0.0;
  std::int64_t ci_tests = 0;
  std::int64_t edges = 0;
  std::int32_t max_depth = 0;
  SkeletonResult skeleton{};
};

/// Resolves `engine_name` through the EngineRegistry (canonical names or
/// CLI aliases — see list_engines()) and returns a config with the
/// engine-appropriate companion knobs: the naive baseline gets the
/// bnlearn-like strided/materialized/ungrouped data path, sample-parallel
/// gets sample-level contingency-table builds. Throws
/// std::invalid_argument for unknown names.
[[nodiscard]] EngineRunConfig engine_config_from_name(
    const std::string& engine_name, int threads = 0);

/// The Fast-BNS-seq configuration (optimized sequential).
[[nodiscard]] EngineRunConfig fastbns_seq_config();
/// The Fast-BNS-par configuration (CI-level, gs = 1 as in Table III).
[[nodiscard]] EngineRunConfig fastbns_par_config(int threads);
/// The bnlearn-like sequential baseline.
[[nodiscard]] EngineRunConfig baseline_seq_config();
/// The bnlearn-par-like baseline (edge-level over the naive data path).
[[nodiscard]] EngineRunConfig baseline_par_config(int threads);

/// Runs the skeleton phase once and reports wall time and counters.
[[nodiscard]] EngineRunResult run_skeleton(const Workload& workload,
                                           const EngineRunConfig& config);

/// Noise-controlled measurement for sub-second runs: repeats the run
/// (after one untimed warmup) until `min_total_seconds` of measurement has
/// accumulated or `max_repeats` is reached, and reports the fastest
/// repetition — the convention the paper's best-over-threads tables use.
[[nodiscard]] EngineRunResult run_skeleton_best(const Workload& workload,
                                                const EngineRunConfig& config,
                                                double min_total_seconds = 0.5,
                                                int max_repeats = 12);

}  // namespace fastbns
