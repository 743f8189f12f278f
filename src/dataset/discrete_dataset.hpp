// Complete-data discrete dataset with selectable memory layout.
//
// The paper's "cache-friendly data storage" optimization (Section IV-C) is
// exactly the column-major (transposed) layout: a CI test on (X, Y, S)
// streams |S|+2 contiguous value arrays instead of striding row-by-row
// across the sample matrix. Both layouts are first-class here so the
// benches can ablate the choice; algorithms request the view they need.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"

namespace fastbns {

enum class DataLayout : std::uint8_t {
  kRowMajor,     ///< sample-contiguous: value(s, v) = rows[s * n + v]
  kColumnMajor,  ///< variable-contiguous: value(s, v) = cols[v * m + s]
  kBoth,         ///< keep both copies (layout ablation benches)
};

/// External storage for the construct-over-external-buffer path: value
/// buffers the dataset *views* instead of owning — typically slices of a
/// MAP_SHARED segment (ipc/shared_dataset.hpp) every forked rank maps
/// once. Empty spans mean "this layout is not materialized externally";
/// at least one of rows/cols must be non-empty, and codes8 (when given)
/// must accompany cols, mirroring the owned-storage rule.
struct ExternalDataBuffers {
  std::span<DataValue> rows{};          ///< m*n sample-major values
  std::span<DataValue> cols{};          ///< n*m variable-major values
  std::span<std::uint8_t> codes8{};     ///< n * padded-stride packed codes
};

class DiscreteDataset {
 public:
  /// Zero-initialized dataset; fill with set().
  DiscreteDataset(VarId num_vars, Count num_samples,
                  std::vector<std::int32_t> cardinalities,
                  DataLayout layout = DataLayout::kColumnMajor);

  /// View over caller-owned buffers (see ExternalDataBuffers): no value
  /// storage is allocated and the buffers must outlive the dataset. set()
  /// writes through; ensure_layout materializes a *missing* layout into
  /// owned storage without touching the external buffers. Copies of an
  /// external-view dataset share the external buffers (the spans are
  /// copied, not the bytes) — exactly the semantics the multi-process
  /// engine wants for its shared segment. Throws std::invalid_argument
  /// when a non-empty span's size disagrees with the dimensions.
  DiscreteDataset(VarId num_vars, Count num_samples,
                  std::vector<std::int32_t> cardinalities,
                  const ExternalDataBuffers& buffers);

  [[nodiscard]] VarId num_vars() const noexcept { return num_vars_; }
  [[nodiscard]] Count num_samples() const noexcept { return num_samples_; }
  [[nodiscard]] std::int32_t cardinality(VarId v) const noexcept {
    return cardinalities_[v];
  }
  [[nodiscard]] const std::vector<std::int32_t>& cardinalities() const noexcept {
    return cardinalities_;
  }
  [[nodiscard]] DataLayout layout() const noexcept { return layout_; }
  [[nodiscard]] bool has_column_major() const noexcept {
    return !cols_span().empty();
  }
  [[nodiscard]] bool has_row_major() const noexcept {
    return !rows_span().empty();
  }

  /// Writes to every materialized layout.
  void set(Count sample, VarId var, DataValue value) noexcept;

  [[nodiscard]] DataValue value(Count sample, VarId var) const noexcept;

  /// Contiguous per-variable values; requires a column-major buffer.
  [[nodiscard]] std::span<const DataValue> column(VarId var) const;

  /// Buffer rows of the packed code columns are padded to a multiple of
  /// this many samples, so full-width vector loads near the tail never
  /// cross the allocation (padding is zero and is never counted). The
  /// guarantee covers the dataset's codes8 columns and the ScratchArena
  /// xy_codes8 mirror, which pads to the same boundary; today's kernels
  /// tail-guard and process the tail scalar, so the padding is headroom
  /// for full-width-tail kernels, not a current dependency.
  static constexpr std::size_t kCodes8Pad = 64;

  /// True when `var` has a packed code column: cardinality in [1, 255]
  /// and the mirror is materialized (it accompanies the column-major
  /// buffer; row-major-only datasets never read packed codes).
  [[nodiscard]] bool has_codes8(VarId v) const noexcept {
    return !codes8_span().empty() && cardinalities_[v] >= 1 &&
           cardinalities_[v] <= 255;
  }

  /// Packed per-variable code column for the SIMD counting data path:
  /// one std::uint8_t code per sample, *clamped* into [0, cardinality)
  /// so unchecked vector kernels can never index outside a cell buffer,
  /// stored in rows padded to kCodes8Pad samples. Materialized whenever
  /// the column-major buffer is (construction or ensure_layout) and kept
  /// in sync by set(); variables whose cardinality falls outside
  /// [1, 255] have no packed column (the span is empty) and kernels
  /// gracefully fall back to column() / row().
  [[nodiscard]] std::span<const std::uint8_t> codes8(VarId v) const noexcept {
    if (!has_codes8(v)) return {};
    return {codes8_span().data() + static_cast<std::size_t>(v) * codes8_stride_,
            static_cast<std::size_t>(num_samples_)};
  }

  /// Read-only bytes of the buffer a CI test streams for `var`: the
  /// packed codes8 column when the variable has one (the hot-path
  /// mirror, padded rows included so page-granular passes cover the
  /// whole slice), the column-major value column otherwise, empty when
  /// neither is materialized.
  [[nodiscard]] std::span<const std::byte> column_bytes(VarId v) const noexcept;

  /// Contiguous per-sample values; requires a row-major buffer.
  [[nodiscard]] std::span<const DataValue> row(Count sample) const;

  /// Materializes the requested layout if missing (copies the data).
  void ensure_layout(DataLayout layout);

  /// True iff every stored value is < the cardinality of its variable.
  [[nodiscard]] bool values_in_range() const noexcept;

  /// Restriction to the first `count` samples (for sample-size sweeps,
  /// e.g. Figure 3's 5k/10k/15k grid drawn from one 15k dataset).
  [[nodiscard]] DiscreteDataset head(Count count) const;

 private:
  /// Builds the packed mirror from the value buffers (clamped); called
  /// when the column-major layout appears after construction.
  void materialize_codes8();

  // Active-buffer selection: owned storage when materialized, the
  // external view otherwise. Owned wins so ensure_layout can materialize
  // a layout the external buffers lack without aliasing confusion — and
  // because a dataset never has both for the same layout (the external
  // constructor allocates nothing). Keeping owned vectors and external
  // spans in *separate* members keeps the default copy/move special
  // members correct: vectors deep-copy, spans share, and neither ever
  // points into the other.
  [[nodiscard]] std::span<const DataValue> rows_span() const noexcept {
    return rows_.empty() ? std::span<const DataValue>(ext_.rows) : rows_;
  }
  [[nodiscard]] std::span<const DataValue> cols_span() const noexcept {
    return cols_.empty() ? std::span<const DataValue>(ext_.cols) : cols_;
  }
  [[nodiscard]] std::span<const std::uint8_t> codes8_span() const noexcept {
    return codes8_.empty() ? std::span<const std::uint8_t>(ext_.codes8)
                           : codes8_;
  }
  [[nodiscard]] std::span<DataValue> rows_span_mut() noexcept {
    return rows_.empty() ? ext_.rows : std::span<DataValue>(rows_);
  }
  [[nodiscard]] std::span<DataValue> cols_span_mut() noexcept {
    return cols_.empty() ? ext_.cols : std::span<DataValue>(cols_);
  }
  [[nodiscard]] std::span<std::uint8_t> codes8_span_mut() noexcept {
    return codes8_.empty() ? ext_.codes8 : std::span<std::uint8_t>(codes8_);
  }

  VarId num_vars_;
  Count num_samples_;
  std::vector<std::int32_t> cardinalities_;
  DataLayout layout_;
  std::vector<DataValue> rows_;  ///< m*n when materialized (owned)
  std::vector<DataValue> cols_;  ///< n*m when materialized (owned)
  std::size_t codes8_stride_ = 0;     ///< samples rounded up to kCodes8Pad
  std::vector<std::uint8_t> codes8_;  ///< n * codes8_stride_, clamped (owned)
  ExternalDataBuffers ext_;  ///< caller-owned views (shm segments)
};

}  // namespace fastbns
