// Table III: overall execution-time comparison.
//
// Paper columns: sequential {bnlearn, tetrad, pcalg, Fast-BNS} and parallel
// {bnlearn, parallel-PC, Fast-BNS} with speedups. This reproduction has one
// sequential baseline (`baseline-seq`, the bnlearn-like naive engine — see
// DESIGN.md "Substitutions") and one parallel baseline (`baseline-par`,
// edge-level parallelism over the naive data path), so it regenerates the
// two speedup relationships the paper's conclusions rest on:
//   * Fast-BNS-seq is multiple times faster than the sequential baseline
//     (paper: 1.4x - 7.2x over bnlearn), and
//   * Fast-BNS-par is several times faster than the parallel baseline
//     (paper: 4.8x - 24.5x over bnlearn-par).
// As in the paper, parallel engines report their best time over the thread
// grid. gs = 1 throughout.
#include <cstdio>
#include <functional>

#include "bench_util/reporting.hpp"
#include "bench_util/runner.hpp"
#include "bench_util/workloads.hpp"
#include "common/args.hpp"
#include "network/standard_networks.hpp"

namespace {

using namespace fastbns;

double best_time_over_threads(const Workload& workload,
                              const std::vector<int>& threads,
                              const std::function<EngineRunConfig(int)>& config_for,
                              int* best_t) {
  double best = -1.0;
  for (const int t : threads) {
    const EngineRunResult result =
        run_skeleton_best(workload, config_for(t));
    if (best < 0.0 || result.seconds < best) {
      best = result.seconds;
      *best_t = t;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_table3_overall",
                 "Table III: sequential and parallel execution-time "
                 "comparison across the benchmark networks");
  args.add_flag("networks", "comma list; empty = scale default", "");
  args.add_flag("samples", "samples per network; 0 = scale default", "0");
  args.add_flag("threads", "thread grid for parallel engines; empty = scale "
                "default", "");
  if (!args.parse(argc, argv)) return 1;

  const BenchScale scale = bench_scale();
  std::vector<std::string> networks = args.get_list("networks");
  if (networks.empty()) networks = comparison_networks(scale);
  std::vector<int> threads;
  for (const auto t : args.get_int_list("threads")) {
    threads.push_back(static_cast<int>(t));
  }
  if (threads.empty()) threads = thread_grid(scale);

  std::printf("Table III reproduction (scale=%s)\n", to_string(scale));

  TablePrinter table({"Data set", "n", "baseline-seq(s)", "FastBNS-seq(s)",
                      "seq speedup", "baseline-par(s)", "FastBNS-par(s)",
                      "par speedup", "best t"});

  for (const std::string& name : networks) {
    Count samples = args.get_int("samples");
    if (samples == 0) {
      Count paper_samples = 5000;
      for (const NetworkSpec& spec : table_ii_specs()) {
        if (spec.name == name) paper_samples = std::min<Count>(spec.max_samples, 5000);
      }
      samples = comparison_samples(scale, paper_samples);
    }
    std::printf("[run] %s with %lld samples...\n", name.c_str(),
                static_cast<long long>(samples));
    std::fflush(stdout);
    const Workload workload = make_workload(name, samples);

    const EngineRunResult baseline_seq =
        run_skeleton_best(workload, baseline_seq_config());
    const EngineRunResult fast_seq = run_skeleton_best(workload, fastbns_seq_config());

    int best_t_fast = 1;
    int best_t_base = 1;
    const double baseline_par = best_time_over_threads(
        workload, threads, baseline_par_config, &best_t_base);
    const double fast_par = best_time_over_threads(
        workload, threads, fastbns_par_config, &best_t_fast);

    table.add_row({name, std::to_string(workload.data.num_vars()),
                   TablePrinter::num(baseline_seq.seconds, 4),
                   TablePrinter::num(fast_seq.seconds, 4),
                   TablePrinter::num(baseline_seq.seconds / fast_seq.seconds, 2),
                   TablePrinter::num(baseline_par, 4),
                   TablePrinter::num(fast_par, 4),
                   TablePrinter::num(baseline_par / fast_par, 2),
                   std::to_string(best_t_fast)});
  }

  emit_table("Table III: overall comparison", "table3_overall", table);
  std::printf(
      "\nShape check vs paper: FastBNS-seq < baseline-seq on every row and\n"
      "FastBNS-par < baseline-par on every row; paper factors were 1.4-7.2x\n"
      "(seq, vs bnlearn) and 4.8-24.5x (par, vs bnlearn-par) on 52 cores.\n");
  return 0;
}
