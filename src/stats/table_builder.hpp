// The CI-kernel layer: contingency-table construction, separated from
// the statistic computed on the finished counts.
//
// The paper's data-path speedups (sample-parallel builds of Section IV-A,
// the cache-friendly column streaming of Section IV-C) and the batching
// directions of the follow-on work (Scutari's bnlearn parallelisation,
// arXiv:1406.7648) all live in *how* N_xyz is counted, never in the G^2 /
// X^2 / MI formula evaluated afterwards. A TableBuilder owns exactly that
// counting pass; DiscreteCiTest is a thin statistic layer over a
// pluggable builder.
//
// All builders are bit-identical in counts: a contingency table is a sum,
// so every kernel must produce byte-equal cell buffers for the same job
// (randomized tests pin this across shapes and cardinalities).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/discrete_dataset.hpp"
#include "stats/scratch_arena.hpp"

namespace fastbns {

/// Inputs shared by every table of one endpoint group: the dataset, the
/// fixed endpoint pair's cardinalities, and the precomputed combined
/// codes x*|Y| + y per sample (the group protocol's "reuse Vi and Vj").
struct TableBuildContext {
  const DiscreteDataset* data = nullptr;
  std::span<const std::int32_t> xy_codes;  ///< per sample: x*cy + y
  /// Packed uint8 mirror of xy_codes; non-empty only when cx * cy <= 255
  /// (every code fits a byte), the context streams columns, a vector
  /// dispatch tier is active, and the selected kernel consumes the
  /// mirror (wants_packed_xy) — nothing else reads it, so every other
  /// configuration skips the packing pass. The SIMD kernel streams this
  /// instead of the int32 codes — a 4x memory-bandwidth cut on the
  /// hottest stream.
  std::span<const std::uint8_t> xy_codes8;
  std::int32_t cx = 0;                     ///< cardinality of X
  std::int32_t cy = 0;                     ///< cardinality of Y
  /// Stride across sample rows instead of streaming columns (the
  /// cache-unfriendly ablation path; requires a row-major buffer).
  bool row_major = false;
  /// Per-thread scratch for kernels that need index blocks; optional —
  /// kernels fall back to internal buffers when null.
  ScratchArena* scratch = nullptr;
};

/// Centralized endpoint-code precomputation — the one helper every
/// builder call site uses (DiscreteCiTest, the kernel tests and benches
/// previously each rolled their own): fills the per-sample combined
/// codes x*|Y| + y into `scratch` (clamped into [0, cx*cy) so malformed
/// raw values can never index outside a cell buffer, plus the packed
/// uint8 mirror when cx * cy <= 255 and a vector tier can consume it)
/// and returns a context wired to those buffers and to `scratch`. The
/// spans stay valid until the next xy_codes/xy_codes8 request on the
/// same arena.
[[nodiscard]] TableBuildContext make_table_context(const DiscreteDataset& data,
                                                   VarId x, VarId y,
                                                   bool row_major,
                                                   ScratchArena& scratch,
                                                   bool want_packed = true);

/// One table to count: the conditioning set, its combined cardinality,
/// and the output cells laid out [xy][zc] (size cx * cy * cz_total).
/// Builders zero `cells` before counting.
struct TableJob {
  std::span<const VarId> z;    ///< conditioning variables, ascending
  std::size_t cz_total = 1;    ///< prod of conditioning cardinalities
  std::span<Count> cells;      ///< out: N_xyz, size cx * cy * cz_total
};

class TableBuilder {
 public:
  virtual ~TableBuilder() = default;

  /// Kernel name for logs and bench labels.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Counts one table.
  virtual void build(const TableBuildContext& context, const TableJob& job) = 0;

  /// Counts a batch of same-endpoint tables. The default loops build();
  /// batching kernels override to share passes over the samples. Jobs may
  /// be counted in any order (each owns its cells), but every job must be
  /// complete on return.
  virtual void build_batch(const TableBuildContext& context,
                           std::span<TableJob> jobs);

  /// Whether this kernel can consume TableBuildContext::xy_codes8 — lets
  /// make_table_context skip the O(m) packing pass for kernels that only
  /// read the int32 codes (everything but the SIMD kernel).
  [[nodiscard]] virtual bool wants_packed_xy() const noexcept {
    return false;
  }
};

/// Serial scan — the paper's optimized sequential kernel. One pass per
/// table, streaming the |S| conditioning columns (or rows when the
/// context says so).
[[nodiscard]] std::unique_ptr<TableBuilder> make_scalar_table_builder();

/// Sample-parallel scan (Section IV-A): all OpenMP threads fill one table
/// with atomics. Exists to reproduce the paper's negative result (the
/// sample-parallel engine).
[[nodiscard]] std::unique_ptr<TableBuilder> make_sample_parallel_table_builder();

/// Batched kernel: groups the same-shape (cx, cy, cz) tables of one
/// endpoint group and counts each shape-run in a single pass over the
/// samples, reading the xy codes once and touching the overlapping
/// conditioning columns while they are cache-hot. build() falls back to
/// the scalar pass.
[[nodiscard]] std::unique_ptr<TableBuilder> make_batched_table_builder();

/// SIMD kernel: the batched kernel's shape-run pass with the per-sample
/// cell-index composition vectorized — AVX2 composes the z+xy codes of 8
/// samples per instruction, SSE4.2 of 4, selected at runtime per CPU
/// (stats/simd_dispatch.hpp); the scatter increments stay scalar. Falls
/// back to the batched scalar pass per run whenever vectorization does
/// not apply (scalar dispatch tier, row-major context, marginal tables,
/// cell counts past 32-bit indexing). Bit-identical to every other
/// kernel.
[[nodiscard]] std::unique_ptr<TableBuilder> make_simd_table_builder();

/// Kernel factory by name — the counting-path analogue of the engine
/// registry: "scalar", "batched", "simd", or "auto" (simd when the CPU
/// dispatch tier is vectorized, batched otherwise). "sample-parallel" is
/// rejected with an explanation: that kernel is the engines' routing
/// target (set_sample_parallel), and installing it as the main builder
/// would nest OpenMP teams. Throws std::invalid_argument listing the
/// valid names for anything unknown.
[[nodiscard]] std::unique_ptr<TableBuilder> make_table_builder(
    std::string_view name);

/// Selectable kernel names, sorted — the stable order CLI help and
/// validation messages enumerate.
[[nodiscard]] std::vector<std::string> list_table_builders();

}  // namespace fastbns
