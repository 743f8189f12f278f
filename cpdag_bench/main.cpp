// CSV -> CPDAG latency benchmark.
//
//   cpdag_bench --mode gen --network munin1 --statistic g2 --rows 20000
//               --seed 1 --csv data.csv
//   cpdag_bench --mode run --workload g2-munin1-20k --network munin1
//               --csv data.csv --threads 4 --seed 1
//               --seconds 10 --trace 0
//
// `run` is a closed loop: one caller, one learn_structure after another in
// a warm process, each result checked against the CPDAG digest of a
// fastbns-seq reference learn made once, outside every timed metric.
// Every workload runs the fastbns-par(ci-level) engine. A fixed counting
// kernel of the benchmark's own, timed on the same threads right before
// and after every learn, is the yardstick: the headline metric is the
// median over learns of learn time / calibration time, since a busy
// shared host slows both alike. With --trace 0 it prints the end-to-end
// metrics; with --trace 1 it alternates untraced and traced learns, times
// a process-engine side learn, replays the counting kernel, probes memory
// bandwidth, and prints the per-layer metrics plus a Chrome trace-event
// file. The last stdout line is the result object; the line before it is
// the run context.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "dataset/dataset_io.hpp"
#include "engine/engine_registry.hpp"
#include "engine/process_engine.hpp"
#include "graph/graph_metrics.hpp"
#include "pc/orientation.hpp"
#include "pc/pc_stable.hpp"
#include "pc/skeleton.hpp"
#include "probes.hpp"
#include "stats/covariance.hpp"
#include "stats/simd_dispatch.hpp"
#include "stats/table_builder.hpp"
#include "workloads.hpp"

namespace {

using namespace fastbns;
using namespace cpdag_bench;

constexpr const char* kEngine = "fastbns-par(ci-level)";
constexpr const char* kReferenceEngine = "fastbns-seq";
constexpr const char* kProcessEngine = "process(rank-partition)";
/// Learns per loop, whatever --seconds says: a median needs a few.
constexpr std::size_t kMinLearns = 3;
/// CSV loads per run: at least kMinLoads, then more while their total
/// stays under kLoadBudgetSeconds, at most kMaxLoads.
constexpr std::size_t kMinLoads = 4;
constexpr std::size_t kMaxLoads = 12;
constexpr double kLoadBudgetSeconds = 3.0;

// ---------------------------------------------------------------- output

std::string num(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_str(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

/// Ordered JSON object builder for flat records.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + json_str(key) + ": " + json;
    return *this;
  }
  JsonObject& field(const std::string& key, double value) {
    return raw(key, num(value));
  }
  JsonObject& field(const std::string& key, const std::string& value) {
    return raw(key, json_str(value));
  }
  JsonObject& field(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// In-memory span store, written once at the end as Chrome trace events.
/// Spans nest by id/parent; tid 0 is the caller, tids >= 100 are the CI
/// clones' per-depth busy aggregates.
class Trace {
 public:
  int add(const std::string& name, const std::string& category, int parent,
          double start_s, double end_s, int tid = 0,
          const std::string& args = "{}") {
    const int id = static_cast<int>(spans_.size()) + 1;
    spans_.push_back({name, category, parent, id, tid, start_s, end_s, args});
    return id;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"name\": " << json_str(s.name) << ", \"cat\": "
          << json_str(s.category) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": "
          << s.tid << ", \"ts\": " << num(s.start_s * 1e6)
          << ", \"dur\": " << num((s.end_s - s.start_s) * 1e6)
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"detail\": " << s.args << "}}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  struct Span {
    std::string name;
    std::string category;
    int parent;
    int id;
    int tid;
    double start_s;
    double end_s;
    std::string args;
  };
  std::vector<Span> spans_;
};

std::string json_list(const std::vector<double>& values) {
  std::string list = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    list += (i ? ", " : "") + num(values[i]);
  }
  return list + "]";
}

// ------------------------------------------------------------ statistics

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// --------------------------------------------------------------- context

int process_mask_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  return CPU_COUNT(&set);
}

/// Smallest affinity mask among `threads` OpenMP pool threads: the mask a
/// leaked thread pin would narrow.
int pool_mask_cpus(int threads) {
  int smallest = 1 << 30;
#pragma omp parallel num_threads(threads) reduction(min : smallest)
  smallest = std::min(smallest, process_mask_cpus());
  return smallest;
}

std::int64_t llc_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return l3;
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? l2 : 0;
}

double peak_rss_mb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::int64_t dataset_bytes(const Dataset& data) {
  std::int64_t bytes = 0;
  if (data.is_discrete()) {
    const DiscreteDataset& d = data.discrete();
    for (VarId v = 0; v < d.num_vars(); ++v) {
      bytes += static_cast<std::int64_t>(d.column(v).size_bytes() +
                                         d.codes8(v).size_bytes());
    }
  } else {
    bytes = static_cast<std::int64_t>(sizeof(double)) * data.num_vars() *
            data.num_samples();
  }
  return bytes;
}

// ------------------------------------------------------------ the learns

struct Config {
  std::string workload;
  std::string network;
  std::string csv;
  int threads = 1;
  std::uint64_t seed = 0;
  double seconds = 1.0;
  bool trace = false;
  std::string trace_out;
  std::string commit;
};

/// gs = 1 everywhere; the process engine runs one single-threaded rank
/// per thread.
PcOptions options_for(const Config& config, const std::string& engine) {
  PcOptions options;
  options.engine_name = engine;
  options.num_threads = config.threads;
  if (engine == kProcessEngine) {
    options.rank_count = config.threads;
    options.rank_threads = 1;
    options.ipc_transport = "pipe";
  }
  options.validate();
  return options;
}

/// What one traced learn measured.
struct TracedLearn {
  /// Learn wall time; for the ipc record, the process-engine side learn's.
  double learn_s = 0.0;
  std::uint64_t digest = 0;
  std::int64_t tests = 0;
  std::int64_t slot_tests = 0;
  double skeleton_s = 0.0;
  double orient_s = 0.0;
  std::int64_t v_structures = 0;
  std::int64_t depth_count = 0;
  double engine_s = 0.0;
  double busy_s = 0.0;
  double imbalance = 0.0;
  double ipc_gather_s = 0.0;
  double ipc_rank_compute_s = 0.0;
  double ipc_depth_s = 0.0;
  std::int64_t ipc_recoveries = 0;
};

/// Sums the process engine's supervisor-side barrier telemetry into `out`.
void take_ipc_stats(const SkeletonEngine& engine, double skeleton_s,
                    TracedLearn& out) {
  const std::vector<ProcessDepthStats>* stats =
      process_engine_depth_stats(engine);
  if (stats == nullptr) return;
  out.skeleton_s = skeleton_s;
  for (const ProcessDepthStats& depth : *stats) {
    out.ipc_gather_s += depth.gather_seconds;
    out.ipc_rank_compute_s += depth.max_rank_seconds;
    out.ipc_depth_s += depth.seconds;
    out.ipc_recoveries += depth.recoveries;
  }
}

/// One probed learn, folded into the per-layer record and the trace.
/// `workers` is the parallelism the imbalance is taken over.
TracedLearn traced_learn(const Dataset& data, const PcOptions& options,
                         int workers, SlotTable& slots, TupleLog* log,
                         Trace& trace, int parent, const std::string& label) {
  const std::unique_ptr<SkeletonEngine> engine =
      EngineRegistry::instance().create(options);
  const ProbedLearn learn = probed_learn(data, options, *engine, slots, log);
  const double start = learn.start_s;
  const double skeleton_start = learn.skeleton_start_s;
  const double skeleton_end = learn.skeleton_end_s;
  const double end = learn.end_s;
  TracedLearn out;
  const SkeletonResult& skeleton = learn.skeleton;
  const OrientationStats& orientation = learn.orientation;
  out.digest = cpdag_digest(learn.cpdag);
  out.tests = skeleton.total_ci_tests;
  out.learn_s = end - start;
  out.skeleton_s = skeleton_end - skeleton_start;
  out.orient_s = end - skeleton_end;
  out.v_structures = orientation.v_structures;
  out.depth_count = static_cast<std::int64_t>(learn.depths.size());

  const int learn_id = trace.add(label, "learn", parent, start, end);
  trace.add("skeleton", "pc", learn_id, skeleton_start, skeleton_end);
  trace.add("orient", "pc", learn_id, skeleton_end, end, 0,
            JsonObject().field("v_structures",
                               static_cast<double>(out.v_structures)).str());
  double sum_max = 0.0;
  double sum_mean = 0.0;
  for (const DepthSpan& span : learn.depths) {
    out.engine_s += span.end_s - span.start_s;
    const int depth_id = trace.add(
        "depth " + std::to_string(span.depth), "engine", learn_id,
        span.start_s, span.end_s, 0,
        JsonObject().field("tests", static_cast<double>(span.tests)).str());
    trace.add("run_depth", "engine", depth_id, span.start_s, span.end_s);
    if (span.depth >= SlotTable::kDepths) continue;
    double depth_max = 0.0;
    double depth_sum = 0.0;
    for (int slot = 0; slot < slots.slots_used(); ++slot) {
      const double busy = 1e-9 * static_cast<double>(
                                     slots.busy_ns(slot, span.depth));
      if (busy <= 0.0) continue;
      depth_max = std::max(depth_max, busy);
      depth_sum += busy;
      trace.add("ci busy", "ci", depth_id, span.start_s, span.start_s + busy,
                100 + slot,
                JsonObject().field("tests", static_cast<double>(slots.tests(
                                                slot, span.depth))).str());
    }
    sum_max += depth_max;
    sum_mean += depth_sum / workers;
  }
  for (int slot = 0; slot < slots.slots_used(); ++slot) {
    for (int depth = 0; depth < SlotTable::kDepths; ++depth) {
      out.busy_s += 1e-9 * static_cast<double>(slots.busy_ns(slot, depth));
      out.slot_tests += slots.tests(slot, depth);
    }
  }
  out.imbalance = sum_mean > 0.0 ? sum_max / sum_mean : 0.0;
  return out;
}

// ------------------------------------------------------- layer probes

struct KernelReplay {
  std::int64_t tables = 0;
  double build_s = 0.0;
  double row_tables = 0.0;
  double bytes = 0.0;
  bool checksum_ok = true;
};

/// Replays the recorded tuples single-threaded through make_table_context
/// + TableBuilder::build_batch, batching consecutive tests of one edge
/// and depth the way a gs-group would. Tables over the CI test's cell cap
/// are skipped, as the test skips them. Every table's cells must sum to
/// the row count.
KernelReplay replay_kernel(const DiscreteDataset& data, const TupleLog& log,
                           std::size_t max_cells) {
  constexpr std::size_t kBatch = 16;
  KernelReplay out;
  const std::unique_ptr<TableBuilder> builder = make_table_builder("auto");
  ScratchArena scratch;
  const Count rows = data.num_samples();
  std::vector<Count> cells;
  std::vector<TableJob> jobs;
  std::vector<std::size_t> offsets;
  for (const std::vector<VarId>& records : log.per_slot()) {
    std::size_t i = 0;
    while (i < records.size()) {
      const VarId x = records[i];
      const VarId y = records[i + 1];
      const TableBuildContext context = make_table_context(
          data, x, y, /*row_major=*/false, scratch, builder->wants_packed_xy());
      const double xy_bytes = context.xy_codes8.empty() ? 4.0 : 1.0;
      const std::size_t xy_cells = static_cast<std::size_t>(context.cx) *
                                   static_cast<std::size_t>(context.cy);
      jobs.clear();
      offsets.clear();
      std::size_t total = 0;
      // Gather up to kBatch consecutive tests of this (x, y, depth) whose
      // cells fit the cap together, as the CI test's own batches do.
      const VarId depth = records[i + 2];
      while (i < records.size() && jobs.size() < kBatch &&
             records[i] == x && records[i + 1] == y && records[i + 2] == depth) {
        const std::span<const VarId> z(records.data() + i + 3,
                                       static_cast<std::size_t>(depth));
        std::size_t cz = 1;
        double z_bytes = 0.0;
        for (const VarId v : z) {
          cz *= static_cast<std::size_t>(data.cardinality(v));
          z_bytes += data.codes8(v).empty() ? sizeof(DataValue) : 1.0;
        }
        const std::size_t size = xy_cells * cz;
        if (size <= max_cells && !jobs.empty() && total + size > max_cells) break;
        i += 3 + static_cast<std::size_t>(depth);
        if (size > max_cells) continue;
        jobs.push_back(TableJob{z, cz, {}});
        offsets.push_back(total);
        total += size;
        out.bytes += static_cast<double>(rows) * (xy_bytes + z_bytes);
      }
      if (jobs.empty()) continue;
      cells.assign(total, 0);
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        jobs[j].cells = std::span<Count>(cells).subspan(
            offsets[j], xy_cells * jobs[j].cz_total);
      }
      const double start = trace_now();
      builder->build_batch(context, jobs);
      out.build_s += trace_now() - start;
      for (const TableJob& job : jobs) {
        Count sum = 0;
        for (const Count c : job.cells) sum += c;
        if (sum != rows) out.checksum_ok = false;
      }
      out.tables += static_cast<std::int64_t>(jobs.size());
    }
  }
  out.row_tables = static_cast<double>(out.tables) * static_cast<double>(rows);
  return out;
}

/// The discrete codes as doubles: the covariance layer's input when the
/// workload's own statistic builds no covariance.
ContinuousDataset promote(const DiscreteDataset& data) {
  ContinuousDataset out(data.num_vars(), data.num_samples());
  for (Count s = 0; s < data.num_samples(); ++s) {
    for (VarId v = 0; v < data.num_vars(); ++v) {
      out.set(s, v, static_cast<double>(data.value(s, v)));
    }
  }
  return out;
}

/// Calibration kernel: a fixed amount of byte-code counting (the shape of
/// a contingency-table build) over an L2-resident array, dealt to
/// `threads` OpenMP threads in small dynamic chunks as the ci-level pool
/// deals tests. Timed next to every learn, it slows down with the learn
/// when the shared host or other processes take cycles away, so the ratio
/// learn / calibration cancels those phases. It is the benchmark's own
/// code, so no change to the library moves it. Returns wall seconds.
double calibration_s(int threads) {
  constexpr std::size_t kCodes = std::size_t{1} << 20;
  constexpr std::size_t kChunkCodes = std::size_t{1} << 17;
  constexpr int kChunks = 4096;
  static const std::vector<std::uint8_t> codes = [] {
    std::vector<std::uint8_t> out(kCodes);
    std::uint32_t state = 12345;
    for (std::uint8_t& code : out) {
      state = state * 1664525u + 1013904223u;
      code = static_cast<std::uint8_t>(state >> 24);
    }
    return out;
  }();
  static volatile std::uint64_t sink = 0;
  std::uint64_t total = 0;
  const double start = trace_now();
#pragma omp parallel for num_threads(threads) schedule(dynamic) reduction(+ : total)
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    std::uint32_t counts[256] = {};
    const std::size_t base = static_cast<std::size_t>(chunk) * 4096;
    for (std::size_t i = 0; i < kChunkCodes; ++i) {
      ++counts[(codes[(base + i) & (kCodes - 1)] ^ chunk) & 255];
    }
    total += counts[chunk & 255];
  }
  const double seconds = trace_now() - start;
  sink = sink + total;
  return seconds;
}

struct TriadProbe {
  double gbps = 0.0;
  std::int64_t array_bytes = 0;  ///< all three arrays together
};

/// STREAM-style triad a = b + s*c, single-threaded like the kernel replay
/// it is the denominator for. The three arrays together span at least
/// 4x the LLC; counted traffic is 24 bytes per element (no
/// write-allocate), median of the repeats.
TriadProbe triad_probe(std::int64_t llc) {
  const std::size_t n = std::max<std::size_t>(
      std::size_t{1} << 22, static_cast<std::size_t>(4 * llc / 24 + 1));
  std::vector<double> a(n, 0.0);
  std::vector<double> b(n, 1.0);
  std::vector<double> c(n, 2.0);
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    const double scalar = 0.5 + rep;
    const double start = trace_now();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + scalar * c[i];
    const double seconds = trace_now() - start;
    rates.push_back(24.0 * static_cast<double>(n) / seconds / 1e9);
  }
  if (a[n / 2] != 1.0 + 2.5 * 2.0) throw std::runtime_error("triad mismatch");
  return {median(rates), static_cast<std::int64_t>(3 * n * sizeof(double))};
}

// ----------------------------------------------------------------- modes

int run_gen(const ArgParser& args) {
  const std::uintmax_t bytes = write_workload_csv(
      args.get("network"), statistic_from_string(args.get("statistic")),
      args.get_int("rows"), static_cast<std::uint64_t>(args.get_int("seed")),
      args.get("csv"));
  std::printf("%s\n",
              JsonObject().field("csv_bytes", static_cast<double>(bytes)).str().c_str());
  return 0;
}

int run_bench(const Config& config) {
  Trace trace;
  const double run_start = trace_now();
  const int mask_before = process_mask_cpus();
  const int pool_before = pool_mask_cpus(config.threads);
  const std::int64_t llc = llc_bytes();
  const int workers = config.threads;

  // Every checked operation (a learn, or the closing affinity check) is
  // one attempt, and fails at most once however many of its checks fail.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  bool attempt_failed = false;
  const auto fail = [&](const std::string& what) {
    attempt_failed = true;
    if (failures.size() < 8) failures.push_back(what);
  };
  const auto attempt = [&](const std::string& what, const auto& body) {
    ++attempted;
    attempt_failed = false;
    try {
      body();
    } catch (const std::exception& error) {
      fail(what + " threw: " + error.what());
    }
    if (attempt_failed) ++failed;
  };

  // Setup: one dataset is resident at a time, as in a structure_tool run.
  // More loads are interleaved with the learns below, each replacing the
  // last, so the setup median samples the whole run.
  const double csv_bytes =
      static_cast<double>(std::filesystem::file_size(config.csv));
  std::vector<double> load_times;
  std::optional<NamedData> loaded;
  const auto timed_load = [&] {
    loaded.reset();
    const double start = trace_now();
    loaded.emplace(load_csv_auto(config.csv));
    const double end = trace_now();
    load_times.push_back(end - start);
    trace.add("load_csv_auto", "dataset", 0, start, end);
  };
  const auto want_load = [&load_times] {
    double total = 0.0;
    for (const double t : load_times) total += t;
    return load_times.size() < kMinLoads ||
           (load_times.size() < kMaxLoads && total < kLoadBudgetSeconds);
  };
  timed_load();
  const std::int64_t data_bytes = dataset_bytes(loaded->data);
  const Pdag truth = cpdag_of_dag(truth_dag(config.network));

  const PcOptions options = options_for(config, kEngine);
  const PcOptions reference_options = options_for(config, kReferenceEngine);

  // Reference: fastbns-seq once, outside every timed metric. The traced
  // run records its tuples for the kernel replay.
  SlotTable slots;
  TupleLog reference_log;
  std::uint64_t reference_digest = 0;
  std::int64_t reference_tests = 0;
  if (config.trace) {
    const TracedLearn reference =
        traced_learn(loaded->data, reference_options, 1, slots, &reference_log,
                     trace, 0, "reference fastbns-seq");
    reference_digest = reference.digest;
    reference_tests = reference.tests;
  } else {
    const PcStableResult reference = learn_structure(loaded->data, reference_options);
    reference_digest = cpdag_digest(reference.cpdag);
    reference_tests = reference.skeleton.total_ci_tests;
  }

  // Closed loop; the first learn is warm-up. Each learn sits between two
  // runs of the calibration kernel, so its yardstick is measured next to
  // it: the host's speed changes within a second, and learns correlate
  // with their neighbouring calibrations, not with the run's median.
  // learn_per_calib is the median over learns of learn time / the two
  // calibrations' sum. With --trace 1 each timed learn is followed by a
  // traced one, so the two compare as neighbours. The clock counts learn
  // and calibration time, not the interleaved loads.
  std::vector<double> learn_times;
  std::vector<double> calibration_times;
  std::vector<double> learn_per_calib;
  std::vector<TracedLearn> traced;
  std::vector<double> traced_ratios;
  std::optional<std::int64_t> learn_tests;
  std::int64_t shd = -1;
  bool probes_ok = true;
  bool warmed = false;
  double learn_clock = 0.0;
  while (!warmed || learn_times.size() < kMinLearns ||
         learn_clock < config.seconds) {
    const Dataset& data = loaded->data;
    double untraced_s = 0.0;
    attempt("learn", [&] {
      const double before = calibration_s(workers);
      const double start = trace_now();
      const PcStableResult result = learn_structure(data, options);
      const double end = trace_now();
      const double after = calibration_s(workers);
      trace.add(warmed ? "learn" : "learn (warm-up)", "learn", 0, start, end);
      if (cpdag_digest(result.cpdag) != reference_digest) {
        fail("learn digest differs from the fastbns-seq reference");
      }
      if (!learn_tests) learn_tests = result.skeleton.total_ci_tests;
      if (*learn_tests != result.skeleton.total_ci_tests) {
        fail("ci test count changed between learns");
      }
      if (shd < 0) shd = structural_hamming_distance(result.cpdag, truth);
      if (warmed) {
        untraced_s = end - start;
        learn_times.push_back(untraced_s);
        calibration_times.push_back(before + after);
        learn_per_calib.push_back(untraced_s / (before + after));
        learn_clock += untraced_s + before + after;
      }
    });
    if (config.trace && untraced_s > 0.0) {
      attempt("traced learn", [&] {
        const TracedLearn learn = traced_learn(data, options, workers, slots,
                                               nullptr, trace, 0, "learn (traced)");
        if (learn.digest != reference_digest) {
          fail("traced learn digest differs from the reference");
        }
        if (learn.tests != learn_tests.value_or(learn.tests)) {
          fail("traced learn ran a different number of CI tests");
        }
        if (learn.slot_tests != learn.tests) probes_ok = false;
        learn_clock += learn.learn_s;
        traced_ratios.push_back(learn.learn_s / untraced_s);
        traced.push_back(learn);
      });
    }
    warmed = true;
    if (want_load()) timed_load();
    if (attempted > 10000) break;
  }
  while (want_load()) timed_load();
  const Dataset& data = loaded->data;
  const double setup_s = median(load_times);
  const double learn_s = median(learn_times);

  JsonObject metrics;
  const auto metric = [&metrics](const std::string& name, double value,
                                 const std::string& unit) {
    metrics.raw(name, JsonObject().field("value", value).field("unit", unit).str());
  };
  JsonObject context;

  if (config.trace) {
    const auto med = [&traced](auto field) {
      std::vector<double> values;
      for (const TracedLearn& t : traced) values.push_back(field(t));
      return median(values);
    };
    const double traced_learn_s = med([](const TracedLearn& t) { return t.learn_s; });
    const double skeleton_s = med([](const TracedLearn& t) { return t.skeleton_s; });
    const double busy_s = med([](const TracedLearn& t) { return t.busy_s; });
    const double engine_s = med([](const TracedLearn& t) { return t.engine_s; });
    const std::int64_t tests = traced.empty() ? 0 : traced.front().tests;

    // ipc: one side learn through the process engine on the same data.
    TracedLearn ipc;
    const PcOptions side = options_for(config, kProcessEngine);
    attempt("process-engine side learn", [&] {
      const double start = trace_now();
      const std::unique_ptr<SkeletonEngine> engine =
          EngineRegistry::instance().create(side);
      const PcStableResult result = learn_structure(data, side, *engine);
      ipc.learn_s = trace_now() - start;
      trace.add("learn (process side run)", "ipc", 0, start, start + ipc.learn_s);
      take_ipc_stats(*engine, result.skeleton.seconds, ipc);
      if (cpdag_digest(result.cpdag) != reference_digest) {
        fail("process-engine side learn differs from the reference");
      }
    });

    // Speedup base: an untraced fastbns-seq learn in the warm process; the
    // traced reference learn above was its warm-up.
    double sequential_s = 0.0;
    attempt("fastbns-seq speedup learn", [&] {
      const double start = trace_now();
      const PcStableResult result = learn_structure(data, reference_options);
      sequential_s = trace_now() - start;
      trace.add("learn (fastbns-seq, speedup base)", "learn", 0, start,
                start + sequential_s);
      if (cpdag_digest(result.cpdag) != reference_digest) {
        fail("fastbns-seq speedup learn differs from the reference");
      }
    });

    // Counting kernel replay of the reference's tuples.
    KernelReplay kernel;
    if (data.is_discrete()) {
      const double start = trace_now();
      kernel = replay_kernel(data.discrete(), reference_log,
                             options.max_table_cells);
      trace.add("kernel replay", "stats", 0, start, trace_now(), 0,
                JsonObject().field("tables", static_cast<double>(kernel.tables)).str());
      if (!kernel.checksum_ok) probes_ok = false;
    }

    // Covariance layer: the workload's data, or its codes as doubles.
    std::vector<double> cov_times;
    {
      const ContinuousDataset promoted =
          data.is_discrete() ? promote(data.discrete())
                             : ContinuousDataset(1, 1);
      const ContinuousDataset& source =
          data.is_discrete() ? promoted : data.continuous();
      const std::unique_ptr<CovarianceBuilder> builder =
          make_covariance_builder("auto");
      for (int rep = 0; rep < 3; ++rep) {
        const double start = trace_now();
        const CorrelationMatrix matrix = builder->build(source);
        cov_times.push_back(trace_now() - start);
        trace.add("covariance build", "stats", 0, start, trace_now());
        if (matrix.num_vars != source.num_vars()) probes_ok = false;
      }
    }
    const double cov_s = median(cov_times);
    const double n = data.num_vars();
    const double m = static_cast<double>(data.num_samples());

    const double membw_start = trace_now();
    const TriadProbe triad = triad_probe(llc);
    trace.add("membw triad", "probe", 0, membw_start, trace_now());

    const double speedup = learn_s > 0.0 ? sequential_s / learn_s : 0.0;

    metric("learn_s", learn_s, "s");
    metric("calib.s", median(calibration_times), "s");
    metric("dataset.csv_mb_per_s", csv_bytes / 1e6 / setup_s, "MB/s");
    metric("dataset.bytes", static_cast<double>(data_bytes), "B");
    metric("kernel.tables", static_cast<double>(kernel.tables), "count");
    metric("kernel.rows_tables_per_s",
           kernel.build_s > 0.0 ? kernel.row_tables / kernel.build_s : 0.0, "1/s");
    metric("kernel.bytes_per_s",
           kernel.build_s > 0.0 ? kernel.bytes / kernel.build_s : 0.0, "B/s");
    metric("kernel.bw_frac",
           kernel.build_s > 0.0 ? kernel.bytes / kernel.build_s / (triad.gbps * 1e9)
                                : 0.0,
           "fraction");
    metric("membw.gbps", triad.gbps, "GB/s");
    metric("ci.tests", static_cast<double>(tests), "count");
    metric("ci.busy_s", busy_s, "s");
    metric("ci.tests_per_s", busy_s > 0.0 ? tests / busy_s : 0.0, "1/s");
    metric("ci.useful_frac",
           tests > 0 ? static_cast<double>(reference_tests) / tests : 0.0,
           "fraction");
    metric("cov.build_s", cov_s, "s");
    metric("cov.gflops", cov_s > 0.0 ? m * n * (n + 1) / cov_s / 1e9 : 0.0,
           "GFLOP/s");
    metric("pool.busy_frac",
           skeleton_s > 0.0 ? busy_s / (workers * skeleton_s) : 0.0, "fraction");
    metric("pool.imbalance", med([](const TracedLearn& t) { return t.imbalance; }),
           "ratio");
    metric("pool.speedup", speedup, "ratio");
    metric("pool.efficiency", speedup / workers, "fraction");
    metric("depth.count",
           traced.empty() ? 0.0 : static_cast<double>(traced.front().depth_count),
           "count");
    metric("depth.engine_s", engine_s, "s");
    metric("depth.driver_s", skeleton_s - engine_s, "s");
    metric("orient.s", med([](const TracedLearn& t) { return t.orient_s; }), "s");
    metric("orient.v_structures",
           traced.empty() ? 0.0 : static_cast<double>(traced.front().v_structures),
           "count");
    metric("ipc.gather_s", ipc.ipc_gather_s, "s");
    metric("ipc.rank_compute_s", ipc.ipc_rank_compute_s, "s");
    metric("ipc.exchange_s", ipc.ipc_gather_s - ipc.ipc_rank_compute_s, "s");
    metric("ipc.spawn_s", ipc.skeleton_s - ipc.ipc_depth_s, "s");
    metric("ipc.recoveries", static_cast<double>(ipc.ipc_recoveries), "count");
    metric("ipc.learn_s", ipc.learn_s, "s");
    metric("ipc.learn_ratio", learn_s > 0.0 ? ipc.learn_s / learn_s : 0.0, "ratio");
    metric("quality.shd", static_cast<double>(shd), "count");
    metric("trace.overhead_frac",
           traced_ratios.empty() ? 0.0 : median(traced_ratios) - 1.0, "fraction");

    context.field("traced_learns", static_cast<double>(traced.size()))
        .field("traced_learn_s", traced_learn_s)
        .field("speedup_base_s", sequential_s)
        .field("kernel_replay_s", kernel.build_s)
        .field("kernel_bytes_note",
               std::string("computed: rows x (xy code bytes + one code byte per "
                           "conditioning variable) per table"))
        .field("cov_flops_note", std::string("computed: m x n x (n + 1)"))
        .field("membw_array_bytes", static_cast<double>(triad.array_bytes))
        .field("membw_llc_multiple",
               llc > 0 ? static_cast<double>(triad.array_bytes) / llc : 0.0)
        .field("ipc_side_learn",
               std::string(kProcessEngine) + ", " + std::to_string(side.rank_count) +
                   " ranks x 1 thread, " + side.ipc_transport);
  }

  const int mask_after = process_mask_cpus();
  const int pool_after = pool_mask_cpus(config.threads);
  attempt("affinity check", [&] {
    if (mask_after < mask_before || pool_after < pool_before) {
      fail("affinity mask narrowed during the workload");
    }
  });
  trace.add(config.workload, "workload", 0, run_start, trace_now());

  if (!config.trace) {
    metric("learn_per_calib", median(learn_per_calib), "ratio");
    metric("setup_s", setup_s, "s");
    metric("peak_rss_mb", peak_rss_mb(RUSAGE_SELF), "MB");
    metric("correct_frac",
           static_cast<double>(attempted - failed) / static_cast<double>(attempted),
           "fraction");
  }

  std::string failure_list = "[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    failure_list += (i ? ", " : "") + json_str(failures[i]);
  }
  failure_list += "]";
  const std::unique_ptr<TableBuilder> table_builder = make_table_builder("auto");
  const std::unique_ptr<CovarianceBuilder> cov_builder =
      make_covariance_builder("auto");
  context.field("workload", config.workload)
      .field("seed", static_cast<double>(config.seed))
      .field("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .field("engine", std::string(kEngine))
      .field("threads", static_cast<double>(config.threads))
      .field("group_size", static_cast<double>(options.group_size))
      .field("simd_tier", std::string(to_string(active_simd_tier())))
      .field("table_builder", std::string(table_builder->name()))
      .field("covariance_builder", std::string(cov_builder->name()))
      .field("llc_bytes", static_cast<double>(llc))
      .field("dataset_bytes", static_cast<double>(data_bytes))
      .field("dataset_llc_ratio",
             llc > 0 ? static_cast<double>(data_bytes) / llc : 0.0)
      .field("csv_bytes", csv_bytes)
      .field("setup_loads", static_cast<double>(load_times.size()))
      .field("compiler", std::string("g++ ") + __VERSION__)
      .field("build_type", std::string(CPDAG_BENCH_BUILD_TYPE))
      .field("commit", config.commit)
      .field("affinity_cpus_before", static_cast<double>(mask_before))
      .field("affinity_cpus_after", static_cast<double>(mask_after))
      .field("pool_affinity_cpus_before", static_cast<double>(pool_before))
      .field("pool_affinity_cpus_after", static_cast<double>(pool_after))
      .field("loop", std::string("closed, 1 caller, warm process"))
      .field("learn_samples", static_cast<double>(learn_times.size()))
      .raw("learn_s_samples", json_list(learn_times))
      .raw("calibration_s_samples", json_list(calibration_times))
      .raw("learn_per_calib_samples", json_list(learn_per_calib))
      .raw("setup_s_samples", json_list(load_times))
      .field("learn_s_median", learn_s)
      .field("learn_s_max", learn_times.empty()
                                ? 0.0
                                : *std::max_element(learn_times.begin(),
                                                    learn_times.end()))
      .field("reference_digest", std::to_string(reference_digest))
      .field("reference_tests", static_cast<double>(reference_tests))
      .field("ci_tests", static_cast<double>(learn_tests.value_or(-1)))
      .field("shd", static_cast<double>(shd))
      .field("peak_rss_self_mb", peak_rss_mb(RUSAGE_SELF))
      .field("peak_rss_ranks_mb", peak_rss_mb(RUSAGE_CHILDREN))
      .field("probes_ok", probes_ok)
      .raw("failures", failure_list);

  if (config.trace && !config.trace_out.empty()) trace.write(config.trace_out);

  const bool correct = failed == 0 && probes_ok && !learn_times.empty();
  std::printf("%s\n", JsonObject().raw("context", context.str()).str().c_str());
  std::printf("%s\n", JsonObject()
                          .field("correct", correct)
                          .field("attempted", static_cast<double>(attempted))
                          .field("failed", static_cast<double>(failed))
                          .raw("metrics", metrics.str())
                          .str()
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("cpdag_bench", "CSV -> CPDAG latency benchmark");
  args.add_flag("mode", "gen (write the CSV) or run (measure)", "run");
  args.add_flag("workload", "workload label", "");
  args.add_flag("network", "standard network analog", "munin1");
  args.add_flag("statistic", "g2 or fisherz", "g2");
  args.add_flag("rows", "rows to sample (gen)", "1000");
  args.add_flag("csv", "CSV path", "");
  args.add_flag("threads", "worker threads", "1");
  args.add_flag("seed", "workload seed", "1");
  args.add_flag("seconds", "measured seconds", "10");
  args.add_flag("trace", "1 = per-layer run", "0");
  args.add_flag("trace-out", "Chrome trace-event output path", "");
  args.add_flag("commit", "source revision label", "unknown");
  if (!args.parse(argc, argv)) return 2;
  try {
    if (args.get("mode") == "gen") return run_gen(args);
    Config config;
    config.workload = args.get("workload");
    config.network = args.get("network");
    config.csv = args.get("csv");
    config.threads = static_cast<int>(args.get_int("threads"));
    config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    config.seconds = args.get_double("seconds");
    config.trace = args.get_int("trace") != 0;
    config.trace_out = args.get("trace-out");
    config.commit = args.get("commit");
    return run_bench(config);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cpdag_bench: %s\n", error.what());
    return 2;
  }
}
