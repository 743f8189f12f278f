// Workload construction shared by all benches: Table II networks plus
// forward-sampled datasets, and the scale policy that keeps the default
// bench run tractable on small CI machines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/dataset.hpp"
#include "network/bayesian_network.hpp"

namespace fastbns {

struct Workload {
  std::string name;
  BayesianNetwork network;
  /// Runtime-kinded: Table II workloads are discrete; the Gaussian bench
  /// builds continuous ones. Benches that need the raw store go through
  /// data.discrete() / data.continuous().
  Dataset data;
};

/// Samples `num_samples` rows from the named Table II network (fixed seed
/// per (name, samples) pair). Layout kBoth so every engine/ablation can
/// run on the same object. Throws on unknown names.
[[nodiscard]] Workload make_workload(const std::string& name, Count num_samples,
                                     DataLayout layout = DataLayout::kBoth);

/// FASTBNS_BENCH_SCALE=paper selects the full Table II grid; anything else
/// (default "small") uses a reduced grid sized for a laptop/CI box: the
/// five smallest networks, at most 2000 samples and at most 8 threads.
/// CI-test cost is linear in the sample count, so the cap scales every
/// engine's time alike rather than reordering the engines.
enum class BenchScale { kSmall, kPaper };
[[nodiscard]] BenchScale bench_scale();
[[nodiscard]] const char* to_string(BenchScale scale);

/// Networks for the overall-comparison experiments at this scale.
[[nodiscard]] std::vector<std::string> comparison_networks(BenchScale scale);

/// Sample count for a network at this scale (paper value vs reduced).
[[nodiscard]] Count comparison_samples(BenchScale scale, Count paper_samples);

/// Thread grid {1, 2, 4, 8, 16, 32}, truncated at small scale to avoid
/// heavy oversubscription noise.
[[nodiscard]] std::vector<int> thread_grid(BenchScale scale);

/// `fanout` conditioning sets of size `depth`, drawn deterministically
/// from variables [first_var, num_vars). The TableBuilder kernel benches
/// (bench_table_builder, bench_micro's shape-run case) share this so
/// they measure the same same-shape workload; sets repeat once fanout
/// exhausts the distinct combinations, which is exactly what a shape run
/// wants. Requires num_vars - first_var >= depth.
[[nodiscard]] std::vector<std::vector<VarId>> shape_run_sets(
    VarId num_vars, std::int32_t depth, std::size_t fanout,
    VarId first_var = 2);

}  // namespace fastbns
