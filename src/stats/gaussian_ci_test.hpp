// Fisher-z partial-correlation CI test on continuous data — the second
// statistic behind the CiTest seam, proving the engines are genuinely
// statistic-agnostic.
//
// Data pass and statistic are fully decoupled: construction runs one
// covariance-builder pass (stats/covariance.hpp) to produce the n x n
// correlation matrix, and every test after that is pure linear algebra —
// invert the (|S|+2)-dimensional correlation submatrix of {X, Y} ∪ S,
// read the partial correlation off the precision matrix, and apply the
// Fisher transform:
//
//   r = -P_xy / sqrt(P_xx * P_yy),   z = sqrt(m - |S| - 3) * atanh(r),
//   p = 2 * P(N(0,1) > |z|);         independent iff p > alpha.
//
// Clones share the correlation matrix (shared_ptr; in the fork-based
// process engine the pages are shared COW), so per-thread clones cost one
// scratch buffer, not a data pass. The per-instance Gauss-Jordan scratch
// makes instances stateful the same way DiscreteCiTest's table workspace
// does — engines already clone per thread.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dataset/continuous_dataset.hpp"
#include "stats/ci_test.hpp"
#include "stats/covariance.hpp"

namespace fastbns {

struct GaussianCiTestOptions {
  double alpha = 0.05;
  /// Covariance builder the construction pass runs through — any
  /// list_covariance_builders() name ("auto" = blocked). The constructor
  /// throws std::invalid_argument for unknown names.
  std::string covariance_builder = "auto";
};

class GaussianCiTest final : public CiTest {
 public:
  /// Borrowing: `data` must outlive the test and every clone.
  GaussianCiTest(const ContinuousDataset& data, GaussianCiTestOptions options);

  /// Sharing: the test (and its clones) keep `data` alive — the path the
  /// CI-test factory uses when it promotes discrete codes to doubles.
  GaussianCiTest(std::shared_ptr<const ContinuousDataset> data,
                 GaussianCiTestOptions options);

  CiResult test(VarId x, VarId y, std::span<const VarId> z) override;
  [[nodiscard]] std::unique_ptr<CiTest> clone() const override;

  /// Workload metadata: a Fisher-z "test" streams no data (the matrix is
  /// prebuilt); samples enter through the z-scaling and states are
  /// uniform.
  [[nodiscard]] Count workload_samples() const noexcept override;
  [[nodiscard]] std::int64_t workload_states(VarId v) const noexcept override;
  /// The doubles column the one-time covariance pass streams.
  [[nodiscard]] std::span<const std::byte> workload_column_bytes(
      VarId v) const noexcept override;

  /// Folds the data source, alpha, and the builder choice into the clone
  /// cache fingerprint (see CiTest::config_token).
  [[nodiscard]] std::uint64_t config_token() const noexcept override;

  [[nodiscard]] const GaussianCiTestOptions& options() const noexcept {
    return options_;
  }
  /// The shared sufficient statistic (tests + benches introspect it).
  [[nodiscard]] const CorrelationMatrix& statistics() const noexcept {
    return *stats_;
  }

 private:
  GaussianCiTest(const GaussianCiTest& other) = default;

  std::shared_ptr<const ContinuousDataset> data_;
  GaussianCiTestOptions options_;
  std::shared_ptr<const CorrelationMatrix> stats_;

  /// Gauss-Jordan scratch: the packed submatrix (k x k, k = |S| + 2),
  /// the variable list of the current test, and the pivot bookkeeping.
  /// Per instance, never shared.
  std::vector<double> scratch_;
  std::vector<VarId> vars_;
  std::vector<std::size_t> pivot_scratch_;
};

/// Convenience factory matching make_g2_test's shape: Fisher-z with the
/// default (blocked) covariance builder.
[[nodiscard]] std::unique_ptr<CiTest> make_fisher_z_test(
    const ContinuousDataset& data, double alpha = 0.05);

}  // namespace fastbns
