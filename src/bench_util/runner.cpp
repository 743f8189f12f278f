#include "bench_util/runner.hpp"

#include <optional>

#include "common/timer.hpp"
#include "engine/engine_registry.hpp"
#include "ipc/shared_dataset.hpp"
#include "stats/ci_test_factory.hpp"

namespace fastbns {

EngineRunConfig engine_config_from_name(const std::string& engine_name,
                                        int threads) {
  EngineRunConfig config;
  // Throws the known-names message for unknown engines; find() is then
  // guaranteed to succeed.
  config.engine = engine_from_string(engine_name);
  const EngineInfo& info = *EngineRegistry::instance().find(engine_name);
  config.engine_name = info.name;
  config.threads = threads;
  config.sample_parallel = info.sample_parallel_test;
  if (info.name == "naive-seq") {
    // The bnlearn-like data path belongs to the naive baseline
    // specifically — not to every engine that happens to forgo endpoint
    // grouping.
    config.row_major = true;
    config.materialize_sets = true;
    config.group_endpoints = false;
  }
  return config;
}

EngineRunConfig fastbns_seq_config() {
  return engine_config_from_name("fastbns-seq", /*threads=*/1);
}

EngineRunConfig fastbns_par_config(int threads) {
  EngineRunConfig config =
      engine_config_from_name("fastbns-par(ci-level)", threads);
  config.group_size = 1;  // Table III setting
  return config;
}

EngineRunConfig baseline_seq_config() {
  return engine_config_from_name("naive-seq", /*threads=*/1);
}

EngineRunConfig baseline_par_config(int threads) {
  EngineRunConfig config = engine_config_from_name("edge-parallel", threads);
  config.row_major = true;
  config.group_endpoints = false;  // both directions are separate tasks
  return config;
}

EngineRunResult run_skeleton_best(const Workload& workload,
                                  const EngineRunConfig& config,
                                  double min_total_seconds, int max_repeats) {
  (void)run_skeleton(workload, config);  // warmup (page faults, allocator)
  EngineRunResult best = run_skeleton(workload, config);
  double accumulated = best.seconds;
  for (int repeat = 1; repeat < max_repeats && accumulated < min_total_seconds;
       ++repeat) {
    EngineRunResult result = run_skeleton(workload, config);
    accumulated += result.seconds;
    if (result.seconds < best.seconds) best = std::move(result);
  }
  return best;
}

EngineRunResult run_skeleton(const Workload& workload,
                             const EngineRunConfig& config) {
  CiTestRequest request;
  request.ci_test = config.ci_test;
  request.alpha = config.alpha;
  request.max_cells = config.max_table_cells;
  request.use_row_major = config.row_major;
  request.sample_parallel = config.sample_parallel;
  request.table_builder = config.table_builder;
  request.covariance_builder = config.covariance_builder;
  // Mirror learn_structure: the process engine's ranks stream the
  // dataset out of one MAP_SHARED segment, so the bench measures the
  // same data path production runs use.
  std::optional<SharedDatasetSegment> shared;
  const Dataset* data = &workload.data;
  if (config.engine == EngineKind::kProcess) {
    shared.emplace(SharedDatasetSegment::create(workload.data));
    data = &shared->dataset();
  }
  const std::unique_ptr<CiTest> test = make_ci_test(*data, request);

  PcOptions options;
  options.engine = config.engine;
  options.engine_name = config.engine_name;
  options.num_threads = config.threads;
  options.group_size = config.group_size;
  options.group_endpoints = config.group_endpoints;
  options.on_the_fly_sets = !config.materialize_sets;
  options.eager_group_stop = config.eager_group_stop;
  options.alpha = config.alpha;
  options.max_table_cells = config.max_table_cells;
  options.table_builder = config.table_builder;
  options.ci_test = config.ci_test;
  options.rank_count = config.rank_count;
  options.rank_threads = config.rank_threads;
  options.max_rank_restarts = config.max_rank_restarts;
  options.fault_schedule = config.fault_schedule;

  const WallTimer timer;
  SkeletonResult skeleton = learn_skeleton(data->num_vars(), *test, options);
  EngineRunResult result;
  result.seconds = timer.seconds();
  result.ci_tests = skeleton.total_ci_tests;
  result.edges = skeleton.graph.num_edges();
  result.max_depth = skeleton.max_depth_reached;
  result.skeleton = std::move(skeleton);
  return result;
}

}  // namespace fastbns
