// Complete-data continuous dataset: double-precision columns, the
// Gaussian analog of DiscreteDataset's column-major value store.
//
// The Fisher-z CI test never streams these columns per test — it works
// off a correlation matrix computed once — so the store is deliberately
// minimal: column-major only (the covariance builders stream whole
// columns, exactly the access the layout optimizes), with the same
// external-buffer construction path DiscreteDataset has so the
// multi-process engine can view a MAP_SHARED doubles block in place.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace fastbns {

/// External storage for the construct-over-external-buffer path: a
/// column-major n*m doubles buffer the dataset *views* instead of owning
/// — typically the doubles block of a MAP_SHARED segment
/// (ipc/shared_dataset.hpp). Copies of an external-view dataset share
/// the buffer (the span is copied, not the bytes).
struct ExternalContinuousBuffers {
  std::span<double> cols{};  ///< n*m variable-major values
};

class ContinuousDataset {
 public:
  /// Zero-initialized owned storage; fill with set().
  ContinuousDataset(VarId num_vars, Count num_samples);

  /// View over a caller-owned buffer (see ExternalContinuousBuffers): no
  /// storage is allocated and the buffer must outlive the dataset; set()
  /// writes through. Throws std::invalid_argument when the span's size
  /// disagrees with the dimensions.
  ContinuousDataset(VarId num_vars, Count num_samples,
                    const ExternalContinuousBuffers& buffers);

  [[nodiscard]] VarId num_vars() const noexcept { return num_vars_; }
  [[nodiscard]] Count num_samples() const noexcept { return num_samples_; }

  void set(Count sample, VarId var, double value) noexcept;
  [[nodiscard]] double value(Count sample, VarId var) const noexcept;

  /// Contiguous per-variable values (m doubles).
  [[nodiscard]] std::span<const double> column(VarId var) const noexcept;

  /// Read-only bytes of the value column, mirroring
  /// DiscreteDataset::column_bytes.
  [[nodiscard]] std::span<const std::byte> column_bytes(VarId v) const noexcept;

  /// Restriction to the first `count` samples (sample-size sweeps).
  [[nodiscard]] ContinuousDataset head(Count count) const;

 private:
  [[nodiscard]] std::span<const double> cols_span() const noexcept {
    return cols_.empty() ? std::span<const double>(ext_.cols) : cols_;
  }
  [[nodiscard]] std::span<double> cols_span_mut() noexcept {
    return cols_.empty() ? ext_.cols : std::span<double>(cols_);
  }

  VarId num_vars_;
  Count num_samples_;
  std::vector<double> cols_;        ///< n*m when owned
  ExternalContinuousBuffers ext_;   ///< caller-owned view (shm segments)
};

}  // namespace fastbns
