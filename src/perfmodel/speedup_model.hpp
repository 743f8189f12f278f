// Closed-form performance model of Section IV-D.
//
// Three analytic speedups — CI-level parallelism with the work pool
// (equations (1) and (2)), endpoint grouping (2 / (2 - rho)), and the
// cache-friendly layout — and their product, the paper's overall model.
// The worked example in IV-D (t=4, d=2, |Ed|=1200, rho=0.6, degree 10,
// B=64, DRAM/cache=8) must evaluate to S_CI=3.87, S_grouping=1.43,
// S_cache=5.57, S=30.8; the unit tests pin those values.
#pragma once

#include <cstdint>

namespace fastbns {

struct CiLevelModelParams {
  std::int64_t edges = 0;      ///< |Ed|, edges at the start of the depth
  double mean_degree = 0.0;    ///< stands in for every a_i^1, a_i^2
  std::int32_t depth = 0;      ///< d
  std::int32_t threads = 1;    ///< t
};

/// S_CI = T1 / T2 with homogeneous degrees (the paper's simplification).
/// T1: worst-case edge-level schedule where one thread receives all the
/// full-length edges; T2: perfectly balanced CI-level schedule plus the
/// (t-1)|Ed|/t single-test edges.
[[nodiscard]] double ci_level_speedup(const CiLevelModelParams& params);

/// S_grouping = 2 / (2 - rho), rho = per-depth edge-deletion ratio.
[[nodiscard]] double grouping_speedup(double deletion_ratio);

struct CacheModelParams {
  std::int32_t depth = 0;            ///< d; a test touches d + 2 variables
  double cache_line_bytes = 64.0;    ///< B
  double value_bytes = 4.0;          ///< the paper assumes 4-byte values
  double dram_to_cache_ratio = 8.0;  ///< T_DRAM / T_cache
};

/// S_cache = T3 / T4 for one cache line's worth of samples.
[[nodiscard]] double cache_speedup(const CacheModelParams& params);

struct OverallModelParams {
  CiLevelModelParams ci;
  double deletion_ratio = 0.0;
  CacheModelParams cache;
};

/// S = S_CI * S_grouping * S_cache.
[[nodiscard]] double overall_speedup(const OverallModelParams& params);

/// The exact parameterization of the paper's worked example.
[[nodiscard]] OverallModelParams paper_example_params();

}  // namespace fastbns
