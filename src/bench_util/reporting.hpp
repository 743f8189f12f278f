// Bench output conventions: print the paper-style table to stdout and
// persist the same rows as CSV and machine-readable JSON under
// bench_results/.
#pragma once

#include <string>

#include "common/table_printer.hpp"

namespace fastbns {

/// Prints `table` with a titled banner, writes `<stem>.csv` to the bench
/// result directory, and mirrors the rows as `BENCH_<stem>.json` (see
/// bench_json) — the file the perf trajectory tooling ingests.
void emit_table(const std::string& title, const std::string& stem,
                const TablePrinter& table);

/// The JSON document emit_table writes: one object per data row keyed by
/// header, cells emitted as numbers when they parse as one —
/// {"bench": stem, "title": ..., "context": {...}, "headers": [...],
/// "rows": [{...}]}. The context block (bench_context_json) records the
/// machine the numbers were taken on.
[[nodiscard]] std::string bench_json(const std::string& title,
                                     const std::string& stem,
                                     const TablePrinter& table);

/// The machine-context object embedded in every BENCH_*.json, read at
/// call time: the cpus this process may run on (its sched_getaffinity
/// mask), the OpenMP default thread count, whether OMP_PROC_BIND /
/// OMP_PLACES binding is active, the SIMD tier the counting kernel
/// dispatches to, and the worker-rank count declared via
/// set_bench_rank_context. A scaling number recorded on fewer cpus than
/// it claims, or a kernel number without its tier, is unreproducible.
[[nodiscard]] std::string bench_context_json();

/// Declares the multi-process configuration for subsequent emit_table /
/// bench_json calls: the largest worker-rank count the bench swept
/// (0 = single-process, the default; a positive count means forked
/// ranks exchanging frames over pipes). Emitted as the context block's
/// `rank_count` field so a BENCH_*.json records how it was produced.
/// Process-global, like the result directory convention.
void set_bench_rank_context(int rank_count);

}  // namespace fastbns
