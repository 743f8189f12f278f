// fastbns structure-learning command-line tool: learn a CPDAG from a CSV
// of observations — integer-coded (discrete, G^2) or floating-point
// (continuous, Fisher-z), auto-detected — and emit the result as an edge
// list and/or a Graphviz DOT file.
//
//   ./structure_tool --data records.csv --engine ci --threads 4 \
//                    --alpha 0.01 --dot out.dot
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/csv_writer.hpp"
#include "dataset/dataset_io.hpp"
#include "engine/engine_registry.hpp"
#include "engine/process_engine.hpp"
#include "graph/graphviz.hpp"
#include "pc/pc_stable.hpp"
#include "stats/ci_test_factory.hpp"
#include "stats/table_builder.hpp"

namespace {

// The engine listing is generated from the registry — names *and*
// aliases — so a newly registered engine can never drift out of the
// usage string.
std::string engine_help() {
  std::string help = "skeleton engine, by canonical name or alias:";
  for (const std::string& name : fastbns::list_engines()) {
    const fastbns::EngineInfo* info =
        fastbns::EngineRegistry::instance().find(name);
    help += ' ';
    help += name;
    if (info != nullptr && !info->aliases.empty()) {
      help += " (";
      for (std::size_t i = 0; i < info->aliases.size(); ++i) {
        if (i > 0) help += '/';
        help += info->aliases[i];
      }
      help += ')';
    }
  }
  return help;
}

// Same registry-driven discipline for the CI-test vocabulary.
std::string ci_test_help() {
  std::string help =
      "conditional-independence statistic (auto = match the dataset "
      "kind):";
  for (const std::string& name : fastbns::list_ci_tests()) {
    help += ' ';
    help += name;
  }
  return help;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fastbns;
  ArgParser args("structure_tool",
                 "learn a Bayesian-network structure from a CSV dataset");
  args.add_flag("data",
                "input CSV (header row; integer-coded cells load as a "
                "discrete dataset, floating-point cells as a continuous one)",
                "");
  args.add_flag("engine", engine_help(), "ci");
  args.add_flag("ci-test", ci_test_help(), "auto");
  args.add_flag("builder",
                "table-counting kernel (auto/simd/batched/scalar; auto = "
                "runtime CPU dispatch)",
                "auto");
  args.add_flag("threads", "worker threads (0 = all)", "0");
  args.add_flag("gs", "work-pool group size", "6");
  args.add_flag("ranks",
                "forked worker ranks for --engine process (0 = auto: two "
                "ranks, one on a single-cpu box)",
                "0");
  args.add_flag("rank-threads",
                "threads inside each rank for --engine process (0 = auto: "
                "thread budget / ranks)",
                "0");
  args.add_flag("max-rank-restarts",
                "respawn budget per dead rank for --engine process before "
                "its shard is re-partitioned onto survivors",
                "1");
  args.add_flag("fault-schedule",
                "deterministic fault injection for --engine process, e.g. "
                "\"kill@rank=1,depth=1;corrupt-frame@rank=0;seed=7\"",
                "");
  args.add_flag("alpha", "G2 significance level", "0.05");
  args.add_flag("max-depth", "conditioning-set cap (-1 = unlimited)", "-1");
  args.add_flag("dot", "write learned CPDAG to this DOT file", "");
  args.add_bool_flag("quiet", "suppress per-depth statistics");
  if (!args.parse(argc, argv)) return 1;

  const std::string data_path = args.get("data");
  if (data_path.empty()) {
    std::fprintf(stderr, "structure_tool: --data is required\n");
    args.print_usage();
    return 1;
  }

  NamedData input = [&] {
    try {
      return load_csv_auto(data_path);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "structure_tool: %s\n", error.what());
      std::exit(1);
    }
  }();
  std::printf("loaded %s: %d variables, %lld samples (%s)\n",
              data_path.c_str(), input.data.num_vars(),
              static_cast<long long>(input.data.num_samples()),
              std::string(to_string(input.data.kind())).c_str());

  PcOptions options;
  try {
    options.engine = engine_from_string(args.get("engine"));
    options.engine_name = args.get("engine");
    options.table_builder = args.get("builder");
    // Fail fast with the known-kernels message, like --engine does.
    (void)make_table_builder(options.table_builder);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "structure_tool: %s\n", error.what());
    return 1;
  }
  options.num_threads = static_cast<int>(args.get_int("threads"));
  options.group_size = static_cast<std::int32_t>(args.get_int("gs"));
  options.rank_count = static_cast<std::int32_t>(args.get_int("ranks"));
  options.rank_threads =
      static_cast<std::int32_t>(args.get_int("rank-threads"));
  options.max_rank_restarts =
      static_cast<std::int32_t>(args.get_int("max-rank-restarts"));
  options.fault_schedule = args.get("fault-schedule");
  options.ci_test = args.get("ci-test");
  options.alpha = args.get_double("alpha");
  options.max_depth = static_cast<std::int32_t>(args.get_int("max-depth"));
  try {
    // Fail fast with the offending value (rank counts, alpha, ...)
    // instead of surfacing mid-run from the driver.
    options.validate();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "structure_tool: %s\n", error.what());
    return 1;
  }
  // Echo the statistic the run will actually use — "auto" resolved
  // against the loaded dataset's kind, like --engine echoes its resolved
  // engine name.
  std::printf("ci test %s%s\n",
              resolve_ci_test_name(options.ci_test, input.data).c_str(),
              options.ci_test == "auto" ? " (auto)" : "");
  if (options.engine == EngineKind::kNaiveSequential &&
      input.data.is_discrete()) {
    // The naive baseline walks rows; give it the row-major mirror. The
    // Dataset holds its store const, so rebuild around a relaid copy.
    DiscreteDataset relaid = input.data.discrete();
    relaid.ensure_layout(DataLayout::kBoth);
    input.data = Dataset(std::move(relaid));
  }

  // Echo the rank/thread split the forked group will actually run with.
  if (options.engine == EngineKind::kProcess) {
    const std::int32_t ranks = resolve_rank_count(options.rank_count);
    std::printf(
        "process ranks: %d x %d threads\n", ranks,
        resolve_rank_threads(options.rank_threads, ranks, options.num_threads));
  }

  // Hold the engine instance ourselves so post-run telemetry (recovery
  // events from the fault-tolerant supervisor) survives the run.
  const std::unique_ptr<SkeletonEngine> engine = [&] {
    try {
      return EngineRegistry::instance().create(options);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "structure_tool: %s\n", error.what());
      std::exit(1);
    }
  }();
  const PcStableResult result = [&] {
    try {
      return learn_structure(input.data, options, *engine);
    } catch (const std::exception& error) {
      // E.g. --ci-test discrete over floating-point data: the factory
      // refuses at construction, before any engine work starts.
      std::fprintf(stderr, "structure_tool: %s\n", error.what());
      std::exit(1);
    }
  }();

  std::printf("engine %s finished in %.3f s (%lld CI tests)\n",
              to_string(options.engine).c_str(), result.total_seconds,
              static_cast<long long>(result.skeleton.total_ci_tests));
  // Surface every recovery the supervisor performed — a run that quietly
  // survived a dead rank should say so, because the wall-clock cost of
  // the respawn/replay is otherwise invisible in the depth table.
  if (const std::vector<RecoveryEvent>* events =
          process_engine_recovery_events(*engine);
      events != nullptr && !events->empty()) {
    std::printf("recovered from %zu fault(s):\n", events->size());
    for (const RecoveryEvent& event : *events) {
      std::printf("  depth %d rank %d: %s (%s)\n", event.depth, event.rank,
                  std::string(to_string(event.action)).c_str(),
                  event.detail.c_str());
    }
  }
  if (!args.get_bool("quiet")) {
    for (const DepthStats& depth : result.skeleton.depth_stats) {
      std::printf(
          "  depth %d: %lld edges, removed %lld (rho=%.2f), %lld tests, %.3fs\n",
          depth.depth, static_cast<long long>(depth.edges_at_start),
          static_cast<long long>(depth.edges_removed), depth.deletion_ratio(),
          static_cast<long long>(depth.ci_tests), depth.seconds);
    }
  }

  std::printf("learned CPDAG: %lld directed, %lld undirected edges\n",
              static_cast<long long>(result.cpdag.num_directed_edges()),
              static_cast<long long>(result.cpdag.num_undirected_edges()));
  for (const auto& [from, to] : result.cpdag.directed_edges()) {
    std::printf("%s -> %s\n", input.names[from].c_str(),
                input.names[to].c_str());
  }
  for (const auto& [u, v] : result.cpdag.undirected_edges()) {
    std::printf("%s -- %s\n", input.names[u].c_str(), input.names[v].c_str());
  }

  const std::string dot_path = args.get("dot");
  if (!dot_path.empty() &&
      write_text_file(dot_path, to_dot(result.cpdag, input.names))) {
    std::printf("wrote %s\n", dot_path.c_str());
  }
  return 0;
}
