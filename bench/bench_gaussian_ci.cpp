// Gaussian CI microbench: the one-pass covariance/correlation build that
// backs every Fisher-z run — scalar reference pass vs the blocked
// (tile-pair parallel) kernel, swept over the thread grid, plus the full
// Fisher-z skeleton learn on the same data so the end-to-end effect of
// the builder choice is visible next to the kernel numbers.
//
// The blocked kernel accumulates every matrix entry on exactly one
// thread in a fixed sample-block order, so the Corr checksum column must
// be bit-identical down its whole sweep — a divergent checksum is a
// determinism bug, not a rounding footnote.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/reporting.hpp"
#include "bench_util/runner.hpp"
#include "bench_util/workloads.hpp"
#include "common/args.hpp"
#include "common/omp_utils.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "network/linear_gaussian.hpp"
#include "network/random_network.hpp"
#include "stats/covariance.hpp"

namespace {

using namespace fastbns;

ContinuousDataset make_data(VarId num_vars, Count num_samples) {
  RandomNetworkConfig config;
  config.num_nodes = num_vars;
  config.num_edges = static_cast<std::int64_t>(num_vars) * 3 / 2;
  config.seed = 4100;
  const BayesianNetwork network = generate_random_network(config);
  Rng rng(4200);
  const LinearGaussianSem sem = random_linear_gaussian_sem(network.dag(), rng);
  return sample_linear_gaussian(sem, num_samples, rng);
}

/// Order-independent digest of the correlation entries, printed so the
/// table itself witnesses scalar/blocked (dis)agreement and the blocked
/// kernel's thread-count invariance.
std::uint64_t corr_checksum(const CorrelationMatrix& stats) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const double value : stats.correlation) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    __builtin_memcpy(&bits, &value, sizeof(bits));
    hash ^= bits;
    hash *= 1099511628211ull;
  }
  return hash;
}

double best_build_seconds(const CovarianceBuilder& builder,
                          const ContinuousDataset& data, int repeats) {
  double best = -1.0;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    const WallTimer timer;
    const CorrelationMatrix stats = builder.build(data);
    const double seconds = timer.seconds();
    if (best < 0.0 || seconds < best) best = seconds;
    if (stats.num_vars != data.num_vars()) std::abort();  // keep the build
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_gaussian_ci",
                 "Fisher-z covariance kernel: scalar vs blocked builder "
                 "across the thread grid, plus the end-to-end Gaussian "
                 "skeleton learn");
  args.add_flag("vars", "variables in the synthetic SEM", "64");
  args.add_flag("samples", "samples; 0 = scale default", "0");
  if (!args.parse(argc, argv)) return 1;

  const BenchScale scale = bench_scale();
  const auto num_vars = static_cast<VarId>(args.get_int("vars"));
  Count samples = args.get_int("samples");
  if (samples == 0) samples = comparison_samples(scale, 50000);
  const int repeats = scale == BenchScale::kPaper ? 5 : 3;

  std::printf("[gen] linear-Gaussian SEM: %d vars, %lld samples (%s scale)\n",
              num_vars, static_cast<long long>(samples), to_string(scale));
  const ContinuousDataset data = make_data(num_vars, samples);
  const double column_gb = static_cast<double>(num_vars) *
                           static_cast<double>(samples) * sizeof(double) /
                           1e9;

  TablePrinter table({"Builder", "Threads", "Build s", "GB/s", "Corr checksum",
                      "Skeleton s", "CI tests"});

  for (const char* builder_name : {"scalar", "blocked"}) {
    const std::unique_ptr<CovarianceBuilder> builder =
        make_covariance_builder(builder_name);
    for (const int threads : thread_grid(scale)) {
      const ScopedNumThreads limit(threads);
      const double build_seconds = best_build_seconds(*builder, data, repeats);
      const CorrelationMatrix stats = builder->build(data);
      char checksum[32];
      std::snprintf(checksum, sizeof(checksum), "%016llx",
                    static_cast<unsigned long long>(corr_checksum(stats)));

      // End-to-end: the same dataset through the Fisher-z skeleton learn
      // (the edge-parallel engine — covariance build + per-test
      // inversions), so the one-time build cost lands in context.
      Workload workload{"gaussian-sem", {}, Dataset::borrow(data)};
      EngineRunConfig config = engine_config_from_name("edge-parallel",
                                                       threads);
      config.ci_test = "gaussian";
      config.covariance_builder = builder_name;
      const EngineRunResult run = run_skeleton(workload, config);

      table.add_row({builder_name, std::to_string(threads),
                     TablePrinter::num(build_seconds, 4),
                     TablePrinter::num(column_gb / build_seconds, 2),
                     checksum, TablePrinter::num(run.seconds, 4),
                     std::to_string(run.ci_tests)});
    }
  }

  emit_table("Gaussian CI: covariance builder + Fisher-z skeleton",
             "gaussian_ci", table);
  return 0;
}
