// Ablation of the three general optimizations of Section IV-C of the
// paper: endpoint grouping, cache-friendly storage, and on-the-fly
// conditioning-set generation. Each is toggled off individually against
// the fully optimized sequential engine.
//
// Expected shape: every ablated variant is slower than (or at best equal
// to) full Fast-BNS-seq; removing all three recovers the naive baseline.
#include <cstdio>

#include "bench_util/reporting.hpp"
#include "bench_util/runner.hpp"
#include "bench_util/workloads.hpp"
#include "common/args.hpp"

int main(int argc, char** argv) {
  using namespace fastbns;
  ArgParser args("bench_ablation",
                 "Ablation of grouping / storage layout / on-the-fly "
                 "conditioning sets on the sequential engine");
  args.add_flag("networks", "comma list", "alarm,insurance,hepar2,munin1");
  args.add_flag("samples", "samples per network; 0 = scale default", "0");
  if (!args.parse(argc, argv)) return 1;

  const BenchScale scale = bench_scale();

  struct Variant {
    const char* name;
    bool grouping;
    bool column_major;
    bool on_the_fly;
  };
  const Variant variants[] = {
      {"full Fast-BNS-seq", true, true, true},
      {"- endpoint grouping", false, true, true},
      {"- cache-friendly layout", true, false, true},
      {"- on-the-fly sets", true, true, false},
      {"naive baseline (none)", false, false, false},
  };

  TablePrinter table({"Data set", "variant", "time(s)", "CI tests",
                      "slowdown vs full"});

  for (const std::string& name : args.get_list("networks")) {
    Count samples = args.get_int("samples");
    if (samples == 0) samples = comparison_samples(scale, 5000);
    std::printf("[run] %s (%lld samples)\n", name.c_str(),
                static_cast<long long>(samples));
    std::fflush(stdout);
    const Workload workload = make_workload(name, samples);

    double full_time = 0.0;
    for (const Variant& variant : variants) {
      EngineRunConfig config = fastbns_seq_config();
      config.group_endpoints = variant.grouping;
      config.row_major = !variant.column_major;
      config.materialize_sets = !variant.on_the_fly;
      if (!variant.grouping && !variant.column_major && !variant.on_the_fly) {
        config = baseline_seq_config();
      }
      const EngineRunResult result = run_skeleton_best(workload, config);
      if (variant.grouping && variant.column_major && variant.on_the_fly) {
        full_time = result.seconds;
      }
      table.add_row({name, variant.name, TablePrinter::num(result.seconds, 4),
                     std::to_string(result.ci_tests),
                     full_time > 0.0
                         ? TablePrinter::num(result.seconds / full_time, 2) + "x"
                         : "1.00x"});
    }
  }

  emit_table("Ablation: Section IV-C optimizations", "ablation", table);
  std::printf(
      "\nShape check: every ablated variant >= full Fast-BNS-seq; removing\n"
      "grouping raises the CI-test count (the 2/(2-rho) effect); removing\n"
      "the layout slows each test; materialization adds set-enumeration\n"
      "overhead and memory traffic.\n");
  return 0;
}
