// Workload generation for the CSV -> CPDAG benchmark. The generating
// network is a fixed analog from the library's standard set (for Gaussian
// workloads with fixed SEM weights); only the sample depends on the seed,
// so one seed always yields the same CSV.
#pragma once

#include <cstdint>
#include <string>

#include "graph/dag.hpp"

namespace cpdag_bench {

/// How the CSV's columns are drawn from the network.
enum class Statistic : std::uint8_t {
  kG2,       ///< forward-sampled discrete codes, G^2 test
  kFisherZ,  ///< linear-Gaussian SEM over the network's DAG, Fisher-z test
};

[[nodiscard]] Statistic statistic_from_string(const std::string& name);

/// The generating DAG of `network`; throws std::invalid_argument for
/// names the standard set does not know.
[[nodiscard]] fastbns::Dag truth_dag(const std::string& network);

/// Samples `rows` rows from `network` with `seed` and writes them as CSV
/// to `path`. Returns the number of bytes written.
std::uintmax_t write_workload_csv(const std::string& network,
                                  Statistic statistic, std::int64_t rows,
                                  std::uint64_t seed, const std::string& path);

}  // namespace cpdag_bench
