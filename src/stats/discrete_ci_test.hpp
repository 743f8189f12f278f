// Statistical CI tests on discrete complete data: G^2 (the paper's test),
// Pearson chi-square, and mutual information.
//
// The class is a thin statistic layer: it owns the endpoint codes, the
// marginals and the G^2 / X^2 / MI evaluation, while the counting pass
// that fills N_xyz lives behind the pluggable TableBuilder kernel
// (stats/table_builder.hpp). The paper's data-path optimizations map onto
// that split:
//  * column-major streaming of exactly the |S|+2 variables a test touches
//    (cache-friendly storage, Section IV-C) — with an opt-in row-major
//    path so benches can ablate the layout choice;
//  * group protocol reusing the combined (X, Y) value codes across the gs
//    tests of a work-pool group (Section IV-B, "reuse Vi and Vj"), plus a
//    batch entry that counts several of a group's tables in one shared
//    pass (the batched kernel);
//  * workspace reuse: one allocation-free contingency buffer per test
//    instance (engines clone one instance per thread);
//  * an optional sample-parallel build (OpenMP + atomics), which exists to
//    reproduce the paper's *negative* result for sample-level parallelism
//    and which engines retarget at runtime through set_sample_parallel().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataset/discrete_dataset.hpp"
#include "stats/ci_test.hpp"
#include "stats/scratch_arena.hpp"
#include "stats/table_builder.hpp"

namespace fastbns {

enum class StatisticKind : std::uint8_t {
  kG2,                 ///< likelihood-ratio G^2 (paper default)
  kPearsonChiSquare,   ///< Pearson X^2
  kMutualInformation,  ///< MI; equivalent decision rule via 2*m*MI ~ chi2
};

enum class DfMode : std::uint8_t {
  kStandard,  ///< (|X|-1)(|Y|-1) * prod |Z_i|   (pcalg-style)
  kAdjusted,  ///< per-stratum, dropping empty rows/columns (bnlearn-style)
};

struct CiTestOptions {
  double alpha = 0.05;
  StatisticKind statistic = StatisticKind::kG2;
  DfMode df_mode = DfMode::kStandard;
  /// Tests whose contingency table exceeds this many cells are not run;
  /// the edge is conservatively kept (result: dependent, p = 0).
  std::size_t max_cells = std::size_t{1} << 24;
  /// Build the contingency table with a row-major (cache-unfriendly) scan.
  bool use_row_major = false;
  /// Parallelize the contingency build over samples (atomics). Emulates
  /// the sample-level granularity of Section IV-A. Engines can retarget
  /// this at runtime through set_sample_parallel().
  bool sample_parallel = false;
  /// TableBuilder kernel serial builds and the batch entry go through —
  /// any list_table_builders() name. "auto" resolves through the runtime
  /// CPU dispatch: the SIMD kernel when a vectorized tier is active, the
  /// batched scalar kernel otherwise. The constructor throws
  /// std::invalid_argument for unknown names.
  std::string table_builder = "auto";
};

class DiscreteCiTest final : public CiTest {
 public:
  /// `data` must outlive the test and have the layout(s) the options need.
  DiscreteCiTest(const DiscreteDataset& data, CiTestOptions options);

  CiResult test(VarId x, VarId y, std::span<const VarId> z) override;
  void begin_group(VarId x, VarId y) override;
  CiResult test_in_group(std::span<const VarId> z) override;
  /// Counts the batch's same-endpoint tables through the configured
  /// kernel (same-shape tables share one pass over the samples; the SIMD
  /// kernel additionally vectorizes the index composition of each pass).
  void test_batch_in_group(std::span<const VarId> flat_sets,
                           std::int32_t depth,
                           std::span<CiResult> results) override;
  [[nodiscard]] std::unique_ptr<CiTest> clone() const override;

  /// Retargets single-table builds between the serial and the
  /// sample-parallel kernel; always supported here.
  bool set_sample_parallel(bool enabled) override;
  [[nodiscard]] bool sample_parallel_build() const noexcept override {
    return sample_parallel_build_;
  }

  [[nodiscard]] Count workload_samples() const noexcept override;
  [[nodiscard]] std::int64_t workload_states(VarId v) const noexcept override;
  /// The buffer a test of `v` actually streams (the dataset's packed
  /// codes8 column or value column).
  [[nodiscard]] std::span<const std::byte> workload_column_bytes(
      VarId v) const noexcept override {
    return data_->column_bytes(v);
  }
  [[nodiscard]] std::size_t table_cell_cap() const noexcept override {
    return options_.max_cells;
  }
  /// Kernel the batch entry counts through ("simd", "batched", ...), for
  /// probes and logs.
  [[nodiscard]] std::string_view table_builder_name() const noexcept override;

  /// Folds every clone-visible knob — the dataset, the full
  /// CiTestOptions, and the runtime sample-parallel retarget — into the
  /// fingerprint the clone cache keys on, so a reconfigured prototype at
  /// a recycled address is never mistaken for the previous one.
  [[nodiscard]] std::uint64_t config_token() const noexcept override;

  [[nodiscard]] const CiTestOptions& options() const noexcept { return options_; }

 private:
  /// Combined-z cardinality of the (x, y, z) table; 0 signals "table too
  /// large" — the full cx * cy * cz cell count is what max_cells caps.
  [[nodiscard]] std::size_t conditioning_cells(VarId x, VarId y,
                                               std::span<const VarId> z) const;

  /// Recomputes the endpoint codes and the build context for (x, y)
  /// through the shared make_table_context helper.
  void refresh_context(VarId x, VarId y);
  /// The kernel single-table builds go through: the configured main
  /// builder, or sample-parallel when the option / runtime hint says so.
  [[nodiscard]] TableBuilder& active_builder() const noexcept;
  [[nodiscard]] CiResult evaluate(std::span<const Count> cells,
                                  std::size_t cz_total,
                                  Count sample_count) const;

  const DiscreteDataset* data_;
  CiTestOptions options_;
  std::int32_t cx_ = 0;  ///< cardinality of current group X
  std::int32_t cy_ = 0;  ///< cardinality of current group Y
  /// begin_group memo: with the LIFO work pool a thread frequently pops
  /// the edge it just pushed back, so consecutive groups of one edge reuse
  /// the endpoint codes without recomputation. (The plain test() entry
  /// point deliberately has no memo — it models the unoptimized path.)
  bool group_codes_valid_ = false;
  /// Runtime mirror of options_.sample_parallel (set_sample_parallel).
  bool sample_parallel_build_ = false;

  /// The configured kernel (options_.table_builder): serial single-table
  /// builds and the batch entry both go through it.
  std::unique_ptr<TableBuilder> main_builder_;
  std::unique_ptr<TableBuilder> sample_builder_;

  /// Per-instance scratch (instances are per-thread via clone()): the
  /// endpoint-code buffers the build context points into, the batch cell
  /// arena, and the SIMD kernel's index blocks all live here, so groups
  /// stop reallocating on the hot path.
  ScratchArena scratch_;
  /// Context of the current endpoint pair; spans point into scratch_.
  TableBuildContext context_;
  std::vector<Count> cells_;  ///< N_xyz, laid out [xy][zc]
  std::vector<TableJob> batch_jobs_;
  std::vector<std::size_t> batch_slots_;  ///< result index per batch job
  mutable std::vector<Count> margin_xz_;
  mutable std::vector<Count> margin_yz_;
  mutable std::vector<Count> margin_z_;
};

/// Convenience factory matching the paper's default configuration
/// (G^2, alpha = 0.05, standard df, column-major).
[[nodiscard]] std::unique_ptr<CiTest> make_g2_test(const DiscreteDataset& data,
                                                   double alpha = 0.05);

}  // namespace fastbns
