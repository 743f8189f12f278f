// Configuration of the PC-stable skeleton engines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace fastbns {

/// The builtin skeleton engines: the five of the paper's evaluation plus
/// the async and process extensions.
enum class EngineKind : std::uint8_t {
  /// bnlearn-like baseline: ordered edge directions processed separately,
  /// conditioning sets materialized ahead of time, no endpoint-code reuse.
  kNaiveSequential,
  /// Fast-BNS-seq: endpoint grouping + on-the-fly sets + group code reuse.
  kFastSequential,
  /// Edge-level parallelism (Section IV-A): static edge partition per depth
  /// over the optimized kernel.
  kEdgeParallel,
  /// Sample-level parallelism (Section IV-A): sequential edge loop, each
  /// contingency table built by all threads with atomics. Requires a CI
  /// test configured with sample_parallel = true to actually parallelize.
  kSampleParallel,
  /// Fast-BNS-par (Section IV-B): CI-level parallelism with the dynamic
  /// work pool.
  kCiParallel,
  /// Async depth-overlap extension: the CI-level dynamic pool, with
  /// threads that find the pool momentarily dry materializing the next
  /// depth's work list for already-settled edges instead of spinning —
  /// the depth barrier shrinks to the truly last straggler.
  kAsync,
  /// Multi-process rank-partition extension: the driver forks rank_count
  /// worker processes over a MAP_SHARED dataset segment, each rank owns
  /// the edges whose lower endpoint maps to its variable shard, and the
  /// per-depth commit barrier becomes an allreduce of removal sets +
  /// sepsets over length-prefixed pipe frames — the fork-based first step
  /// of the roadmap's distributed (MPI-style) skeleton learning.
  kProcess,
};

/// Canonical engine name as registered in the EngineRegistry (defined in
/// engine/engine_registry.cpp — the single source of the names the CLI
/// parsers accept; see also engine_from_string / list_engines there).
[[nodiscard]] std::string to_string(EngineKind kind);

struct PcOptions {
  EngineKind engine = EngineKind::kCiParallel;
  /// When non-empty, the engine is constructed from this registry name
  /// (canonical or alias) instead of `engine` — the path that keeps
  /// registered out-of-tree backends selectable even when they share an
  /// EngineKind with a builtin. CLI parsers set both.
  std::string engine_name;
  /// OpenMP threads for parallel engines; 0 keeps the runtime default.
  int num_threads = 0;
  /// gs — CI tests a thread runs per work-pool hold (kCiParallel only).
  std::int32_t group_size = 1;
  /// Cap on conditioning-set size; -1 runs to the natural PC-stable stop.
  std::int32_t max_depth = -1;
  /// Ablation toggle: treat Vi-Vj / Vj-Vi as one work unit (Section IV-C).
  /// Forced off by kNaiveSequential.
  bool group_endpoints = true;
  /// Ablation toggle: unrank conditioning sets on demand instead of
  /// materializing them per edge. Forced off by kNaiveSequential.
  bool on_the_fly_sets = true;
  /// Extension beyond the paper (kCiParallel only): stop a gs-group at its
  /// first accepting CI test instead of completing the batch. Produces the
  /// identical skeleton and sepsets (tests run in canonical order either
  /// way) while eliminating the redundant tests the paper's Figure 4
  /// measures; defaults to the paper's batch-atomic semantics.
  bool eager_group_stop = false;
  /// Significance level used by the learn_structure() convenience wrapper
  /// when it constructs the G^2 test.
  double alpha = 0.05;
  /// Cap on the contingency-table cells a single CI test may allocate;
  /// oversized tests are skipped conservatively (the edge is kept).
  /// Forwarded to CiTestOptions::max_cells by learn_structure and the
  /// bench runner.
  std::size_t max_table_cells = std::size_t{1} << 24;
  /// TableBuilder kernel the CI test counts through — any
  /// list_table_builders() name ("auto" picks the SIMD kernel when the
  /// runtime CPU dispatch supports it, the batched scalar kernel
  /// otherwise). Forwarded to CiTestOptions::table_builder by
  /// learn_structure and the bench runner, exactly like engines are
  /// selected by registry name.
  std::string table_builder = "auto";
  /// Statistic the learn_structure() wrappers construct — any
  /// list_ci_tests() name: "auto" matches the dataset kind (discrete
  /// data -> the G^2 test, continuous data -> Fisher-z), "discrete" and
  /// "gaussian" force a statistic, "oracle" is rejected at construction
  /// with a pointer to the direct pc_stable path. Resolved by
  /// stats/ci_test_factory.hpp the way engines resolve through the
  /// registry.
  std::string ci_test = "auto";
  /// Worker ranks (forked processes) of the multi-process engine
  /// (kProcess only): 0 = auto (min(2, hardware threads) — distributed by
  /// default, degenerating to a single rank on a 1-cpu box). Ranks may
  /// outnumber variables (trailing ranks own no edges); rank 1 is the
  /// fork-supervised degenerate case the fuzz harness sweeps.
  std::int32_t rank_count = 0;
  /// Worker threads *inside* each rank (kProcess only): 0 = auto
  /// (effective thread budget / rank_count, at least 1). Ranks use plain
  /// std::thread teams — never OpenMP, whose runtime does not survive
  /// fork() — so this is deliberately separate from num_threads.
  std::int32_t rank_threads = 0;
  /// Fault tolerance of the multi-process engine (kProcess only): how
  /// many times a dead or wedged rank may be respawned (its graph
  /// replica rebuilt by replaying the committed removal log) before the
  /// supervisor stops restarting it and re-partitions its shard of edges
  /// onto the surviving ranks instead. 0 = never respawn (straight to
  /// re-partition). Either way the run completes with the bit-identical
  /// result; only the recovery cost differs.
  std::int32_t max_rank_restarts = 1;
  /// Supervisor-side deadline for each received frame, in milliseconds
  /// (kProcess only) — per frame, not per depth, so one slow rank
  /// cannot consume the whole barrier budget of its siblings. 0 = the
  /// FASTBNS_RANK_TIMEOUT_MS environment override, default 120000.
  std::int32_t frame_deadline_ms = 0;
  /// Bounded retransmit attempts when a received frame fails its CRC or
  /// its deadline (kProcess only): the supervisor asks the rank to
  /// resend its buffered reply up to this many times before declaring
  /// the rank failed and entering the recovery ladder.
  std::int32_t frame_retry_limit = 2;
  /// Backoff between retransmit attempts, in milliseconds, scaled
  /// linearly by the attempt number (kProcess only).
  std::int32_t frame_retry_backoff_ms = 10;
  /// Rank IPC channel of the multi-process engine: "auto" or "pipe",
  /// both meaning fork-inherited pipe pairs over the anonymous
  /// MAP_SHARED dataset — the only channel there is. Kept so existing
  /// callers that name the channel keep validating; validate() rejects
  /// every other name.
  std::string ipc_transport = "auto";
  /// Deterministic fault schedule (fault/fault_schedule.hpp grammar,
  /// e.g. "kill@rank=1,depth=2;corrupt-frame@rank=0,depth=1") injected
  /// into the multi-process engine's ranks and frames — the CI/test
  /// hook that exercises every recovery path. Empty = the
  /// FASTBNS_FAULT_SCHEDULE environment variable (default: no faults).
  std::string fault_schedule;

  /// Largest accepted num_threads; far beyond any machine this targets,
  /// so a mistyped thread count fails here instead of oversubscribing.
  static constexpr int kMaxThreads = 4096;
  /// Largest accepted rank_count: every rank is a forked process, so the
  /// cap is deliberately far below kMaxThreads — 1024 ranks is already
  /// beyond any single box this engine forks on.
  static constexpr std::int32_t kMaxRanks = 1024;
  /// Largest accepted max_rank_restarts: each restart forks, replays
  /// and re-runs a depth, so a budget beyond this is a typo, not a plan.
  static constexpr std::int32_t kMaxRankRestarts = 64;
  /// Largest accepted frame_deadline_ms: one day. A deadline is the
  /// wedge detector; disabling it by overflow must fail loudly.
  static constexpr std::int32_t kMaxFrameDeadlineMs = 86'400'000;
  /// Largest accepted frame_retry_limit.
  static constexpr std::int32_t kMaxFrameRetries = 64;
  /// Largest accepted frame_retry_backoff_ms (one minute per step).
  static constexpr std::int32_t kMaxFrameBackoffMs = 60'000;

  /// Throws std::invalid_argument when any field is out of range:
  /// group_size >= 1, alpha in (0, 1), max_depth >= -1, 0 <= num_threads
  /// <= kMaxThreads, 0 <= rank_count <= kMaxRanks, rank_threads likewise
  /// against kMaxThreads, ipc_transport a known transport (auto/pipe),
  /// table_builder a known kernel name, ci_test a known statistic name
  /// (auto/discrete/gaussian/oracle), and max_table_cells
  /// >= 4 (a smaller cap cannot hold even the 2x2 marginal table of two
  /// binary variables, so every test would be skipped and no edge ever
  /// removed). Every rejection message names the offending value, not
  /// just the field. Self-contained field checks only; the
  /// engine-dependent max_table_cells/threads combination rule is
  /// enforced by the skeleton driver once the engine is resolved (see
  /// learn_skeleton) — both fail up front instead of mid-run inside an
  /// engine.
  void validate() const;
};

}  // namespace fastbns
