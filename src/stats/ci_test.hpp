// Conditional-independence test interface.
//
// Skeleton engines are generic over the test: statistical tests (G^2,
// Pearson chi-square, mutual information) run on data, while the
// d-separation oracle answers from a ground-truth DAG (used to property-
// test the whole pipeline). Tests are stateful (they own workspaces), so
// parallel engines give each thread its own clone().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

// (std::byte comes from <cstddef>; spans of it carry raw column
// buffers.)

#include "common/types.hpp"

namespace fastbns {

struct CiResult {
  double statistic = 0.0;
  double p_value = 1.0;
  std::int64_t degrees_of_freedom = 0;
  bool independent = true;
};

class CiTest {
 public:
  virtual ~CiTest() = default;

  /// Tests I(x, y | z). `z` is an ascending list of variable ids.
  virtual CiResult test(VarId x, VarId y, std::span<const VarId> z) = 0;

  /// Group protocol (the paper's "reuse Vi and Vj across a group of gs CI
  /// tests"): begin_group fixes the endpoint pair, then test_in_group runs
  /// one test against it. Default implementation forwards to test().
  virtual void begin_group(VarId x, VarId y);
  virtual CiResult test_in_group(std::span<const VarId> z);

  /// Batch entry of the group protocol: runs the current group's test for
  /// each of the `results.size()` conditioning sets packed into
  /// `flat_sets` (each `depth` ascending ids), writing one CiResult per
  /// set. Semantically identical to calling test_in_group once per set in
  /// packing order; implementations may build the counts of the whole
  /// batch together (the batched TableBuilder kernel). Default loops
  /// test_in_group.
  virtual void test_batch_in_group(std::span<const VarId> flat_sets,
                                   std::int32_t depth,
                                   std::span<CiResult> results);

  /// Runtime retarget of the table-build granularity: when supported,
  /// subsequent tables are counted sample-parallel (true) or serially
  /// (false). Returns false when the test has no such distinction (the
  /// d-separation oracle). The process engine's ranks switch it off,
  /// because sample-parallel builds are OpenMP regions. The getter
  /// reports the mode currently in force.
  virtual bool set_sample_parallel(bool enabled) {
    (void)enabled;
    return false;
  }
  [[nodiscard]] virtual bool sample_parallel_build() const noexcept {
    return false;
  }

  /// Workload metadata for probes and logs: the number of samples one
  /// test streams and the state count of a variable. Data-free tests
  /// return 0.
  [[nodiscard]] virtual Count workload_samples() const noexcept { return 0; }
  [[nodiscard]] virtual std::int64_t workload_states(VarId v) const noexcept {
    (void)v;
    return 0;
  }

  /// Read-only bytes of the value column a test of `v` streams (the
  /// packed codes8 column when materialized, the value column otherwise);
  /// empty for data-free tests (the oracle). No library code calls it;
  /// it stays as a probe surface for wrapping tests that forward it.
  [[nodiscard]] virtual std::span<const std::byte> workload_column_bytes(
      VarId v) const noexcept {
    (void)v;
    return {};
  }

  /// The per-table cell cap this test enforces, 0 when it enforces none
  /// (the oracle). Lets driver sanity checks reason about the cap
  /// actually in force rather than the PcOptions mirror of it.
  [[nodiscard]] virtual std::size_t table_cell_cap() const noexcept {
    return 0;
  }

  /// Name of the TableBuilder kernel batched counting goes through
  /// ("simd", "batched", ...), for probes and logs. Tests that build no
  /// contingency tables — the oracle, the Fisher-z test — report "n/a".
  [[nodiscard]] virtual std::string_view table_builder_name() const noexcept {
    return "n/a";
  }

  /// Fingerprint of the configuration a clone() of this test would
  /// inherit. ThreadLocalTests keys its per-thread clone cache on the
  /// prototype's (address, dynamic type, token): the address alone cannot
  /// distinguish a *reconfigured* prototype at a recycled address from
  /// the previous run's, so implementations must fold every clone-visible
  /// knob (data source, statistic options, builder selection, runtime
  /// retargets) into this value. The default 0 is for tests with no
  /// configuration beyond their dynamic type and constructor inputs —
  /// such tests should still fold those inputs in (see the d-separation
  /// oracle hashing its DAG pointer).
  [[nodiscard]] virtual std::uint64_t config_token() const noexcept {
    return 0;
  }

  /// Deep copy for per-thread use.
  [[nodiscard]] virtual std::unique_ptr<CiTest> clone() const = 0;

  /// Number of CI tests this instance executed (Figure 4's y-axis).
  [[nodiscard]] std::int64_t tests_performed() const noexcept {
    return tests_performed_;
  }
  void reset_counter() noexcept { tests_performed_ = 0; }

 protected:
  std::int64_t tests_performed_ = 0;
  VarId group_x_ = kInvalidVar;
  VarId group_y_ = kInvalidVar;
};

}  // namespace fastbns
