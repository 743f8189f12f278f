#include "workloads.hpp"

#include <filesystem>
#include <stdexcept>

#include "common/rng.hpp"
#include "dataset/dataset_io.hpp"
#include "network/forward_sampler.hpp"
#include "network/linear_gaussian.hpp"
#include "network/standard_networks.hpp"

namespace cpdag_bench {
namespace {

/// The Gaussian workloads' SEM weights and noise scales are part of the
/// network, fixed like the discrete networks' CPTs; the seed draws only
/// the sample. Weights drawn per seed moved the CI-test count by about 8%
/// between seeds, which would read as a change in learn time.
constexpr std::uint64_t kSemParameterSeed = 1;

fastbns::BayesianNetwork network_named(const std::string& network) {
  auto found = fastbns::benchmark_network(network);
  if (!found.has_value()) {
    throw std::invalid_argument("unknown network \"" + network + "\"");
  }
  return std::move(*found);
}

}  // namespace

Statistic statistic_from_string(const std::string& name) {
  if (name == "g2") return Statistic::kG2;
  if (name == "fisherz") return Statistic::kFisherZ;
  throw std::invalid_argument("unknown statistic \"" + name +
                              "\"; known: g2 fisherz");
}

fastbns::Dag truth_dag(const std::string& network) {
  return network_named(network).dag();
}

std::uintmax_t write_workload_csv(const std::string& network,
                                  Statistic statistic, std::int64_t rows,
                                  std::uint64_t seed, const std::string& path) {
  const fastbns::BayesianNetwork net = network_named(network);
  fastbns::Rng rng(seed);
  bool saved = false;
  if (statistic == Statistic::kG2) {
    const fastbns::DiscreteDataset data = fastbns::forward_sample(net, rows, rng);
    saved = fastbns::save_csv(data, net.variable_names(), path);
  } else {
    fastbns::Rng parameter_rng(kSemParameterSeed);
    const fastbns::LinearGaussianSem sem =
        fastbns::random_linear_gaussian_sem(net.dag(), parameter_rng);
    const fastbns::ContinuousDataset data =
        fastbns::sample_linear_gaussian(sem, rows, rng);
    saved = fastbns::save_csv(data, net.variable_names(), path);
  }
  if (!saved) throw std::runtime_error("cannot write " + path);
  return std::filesystem::file_size(path);
}

}  // namespace cpdag_bench
