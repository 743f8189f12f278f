#include "stats/discrete_ci_test.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace fastbns {
namespace {

/// x, y independent coins; z = x XOR y (so x ⫫ y marginally but x and y
/// are dependent given z).
DiscreteDataset xor_dataset(Count m, std::uint64_t seed,
                            DataLayout layout = DataLayout::kBoth) {
  DiscreteDataset data(3, m, {2, 2, 2}, layout);
  Rng rng(seed);
  for (Count s = 0; s < m; ++s) {
    const auto x = static_cast<DataValue>(rng.next_below(2));
    const auto y = static_cast<DataValue>(rng.next_below(2));
    data.set(s, 0, x);
    data.set(s, 1, y);
    data.set(s, 2, static_cast<DataValue>(x ^ y));
  }
  return data;
}

/// x -> y strongly correlated pair plus an independent w.
DiscreteDataset correlated_dataset(Count m, std::uint64_t seed,
                                   DataLayout layout = DataLayout::kBoth) {
  DiscreteDataset data(3, m, {2, 2, 2}, layout);
  Rng rng(seed);
  for (Count s = 0; s < m; ++s) {
    const auto x = static_cast<DataValue>(rng.next_below(2));
    const auto y =
        rng.next_double() < 0.9 ? x : static_cast<DataValue>(1 - x);
    data.set(s, 0, x);
    data.set(s, 1, y);
    data.set(s, 2, static_cast<DataValue>(rng.next_below(2)));
  }
  return data;
}

TEST(DiscreteCiTest, DetectsMarginalIndependence) {
  const auto data = xor_dataset(4000, 7);
  DiscreteCiTest test(data, {});
  const CiResult result = test.test(0, 1, {});
  EXPECT_TRUE(result.independent);
  EXPECT_GT(result.p_value, 0.05);
  EXPECT_EQ(result.degrees_of_freedom, 1);
}

TEST(DiscreteCiTest, DetectsConditionalDependenceOfXorParents) {
  const auto data = xor_dataset(4000, 7);
  DiscreteCiTest test(data, {});
  const std::vector<VarId> z{2};
  const CiResult result = test.test(0, 1, z);
  EXPECT_FALSE(result.independent);
  EXPECT_LT(result.p_value, 1e-6);
  EXPECT_EQ(result.degrees_of_freedom, 2);  // (2-1)(2-1)*2
}

TEST(DiscreteCiTest, DetectsStrongDependence) {
  const auto data = correlated_dataset(4000, 11);
  DiscreteCiTest test(data, {});
  const CiResult result = test.test(0, 1, {});
  EXPECT_FALSE(result.independent);
  EXPECT_GT(result.statistic, 100.0);
}

TEST(DiscreteCiTest, IndependentOfUnrelatedVariable) {
  const auto data = correlated_dataset(4000, 11);
  DiscreteCiTest test(data, {});
  EXPECT_TRUE(test.test(0, 2, {}).independent);
  const std::vector<VarId> z{1};
  EXPECT_TRUE(test.test(0, 2, z).independent);
}

TEST(DiscreteCiTest, GroupProtocolMatchesDirectCalls) {
  const auto data = xor_dataset(2000, 13);
  DiscreteCiTest direct(data, {});
  DiscreteCiTest grouped(data, {});
  grouped.begin_group(0, 1);
  for (const std::vector<VarId> z :
       {std::vector<VarId>{}, std::vector<VarId>{2}}) {
    const CiResult a = direct.test(0, 1, z);
    const CiResult b = grouped.test_in_group(z);
    EXPECT_DOUBLE_EQ(a.statistic, b.statistic);
    EXPECT_DOUBLE_EQ(a.p_value, b.p_value);
    EXPECT_EQ(a.independent, b.independent);
    EXPECT_EQ(a.degrees_of_freedom, b.degrees_of_freedom);
  }
}

TEST(DiscreteCiTest, RowMajorPathMatchesColumnMajor) {
  const auto data = xor_dataset(2000, 17, DataLayout::kBoth);
  CiTestOptions row_options;
  row_options.use_row_major = true;
  DiscreteCiTest row_test(data, row_options);
  DiscreteCiTest col_test(data, {});
  for (VarId x = 0; x < 3; ++x) {
    for (VarId y = 0; y < 3; ++y) {
      if (x == y) continue;
      const CiResult a = row_test.test(x, y, {});
      const CiResult b = col_test.test(x, y, {});
      EXPECT_DOUBLE_EQ(a.statistic, b.statistic);
    }
  }
}

TEST(DiscreteCiTest, SampleParallelMatchesSerial) {
  const auto data = xor_dataset(3000, 19);
  CiTestOptions parallel_options;
  parallel_options.sample_parallel = true;
  DiscreteCiTest parallel_test(data, parallel_options);
  DiscreteCiTest serial_test(data, {});
  const std::vector<VarId> z{2};
  const CiResult a = parallel_test.test(0, 1, z);
  const CiResult b = serial_test.test(0, 1, z);
  EXPECT_DOUBLE_EQ(a.statistic, b.statistic);
  EXPECT_EQ(a.independent, b.independent);
}

TEST(DiscreteCiTest, PearsonChiSquareAgreesOnDecision) {
  // Same draw as IndependentOfUnrelatedVariable so the w column is known
  // to fall on the accept side of alpha for both statistics.
  const auto data = correlated_dataset(4000, 11);
  CiTestOptions x2_options;
  x2_options.statistic = StatisticKind::kPearsonChiSquare;
  DiscreteCiTest x2_test(data, x2_options);
  EXPECT_FALSE(x2_test.test(0, 1, {}).independent);
  EXPECT_TRUE(x2_test.test(0, 2, {}).independent);
}

TEST(DiscreteCiTest, MutualInformationReportsNats) {
  const auto data = correlated_dataset(4000, 29);
  CiTestOptions mi_options;
  mi_options.statistic = StatisticKind::kMutualInformation;
  DiscreteCiTest mi_test(data, mi_options);
  DiscreteCiTest g2_test(data, {});
  const CiResult mi = mi_test.test(0, 1, {});
  const CiResult g2 = g2_test.test(0, 1, {});
  EXPECT_NEAR(mi.statistic,
              g2.statistic / (2.0 * static_cast<double>(data.num_samples())),
              1e-12);
  EXPECT_EQ(mi.independent, g2.independent);  // same decision rule
}

TEST(DiscreteCiTest, AdjustedDfDropsEmptyStrata) {
  // Constant z column: only one stratum is populated out of two.
  DiscreteDataset data(3, 100, {2, 2, 2}, DataLayout::kBoth);
  Rng rng(31);
  for (Count s = 0; s < 100; ++s) {
    data.set(s, 0, static_cast<DataValue>(rng.next_below(2)));
    data.set(s, 1, static_cast<DataValue>(rng.next_below(2)));
    data.set(s, 2, 0);
  }
  const std::vector<VarId> z{2};
  CiTestOptions standard;
  DiscreteCiTest standard_test(data, standard);
  EXPECT_EQ(standard_test.test(0, 1, z).degrees_of_freedom, 2);
  CiTestOptions adjusted;
  adjusted.df_mode = DfMode::kAdjusted;
  DiscreteCiTest adjusted_test(data, adjusted);
  EXPECT_EQ(adjusted_test.test(0, 1, z).degrees_of_freedom, 1);
}

TEST(DiscreteCiTest, OversizedTableIsConservativelyDependent) {
  const auto data = xor_dataset(100, 37);
  CiTestOptions options;
  options.max_cells = 1;  // force the guard
  DiscreteCiTest test(data, options);
  const std::vector<VarId> z{2};
  const CiResult result = test.test(0, 1, z);
  EXPECT_FALSE(result.independent);
  EXPECT_EQ(result.degrees_of_freedom, -1);
}

TEST(DiscreteCiTest, MaxCellsCapsTheFullTableNotJustConditioning) {
  const auto data = xor_dataset(100, 37);
  // A 2x2 marginal table needs 4 cells: a 3-cell cap skips it even with
  // an empty conditioning set, and an 8-cell cap admits the marginal but
  // not the 2x2x2 conditional table.
  CiTestOptions tight;
  tight.max_cells = 3;
  DiscreteCiTest tight_test(data, tight);
  EXPECT_EQ(tight_test.test(0, 1, {}).degrees_of_freedom, -1);
  CiTestOptions marginal_only;
  marginal_only.max_cells = 4;
  DiscreteCiTest marginal_test(data, marginal_only);
  EXPECT_NE(marginal_test.test(0, 1, {}).degrees_of_freedom, -1);
  const std::vector<VarId> z{2};
  EXPECT_EQ(marginal_test.test(0, 1, z).degrees_of_freedom, -1);
}

TEST(DiscreteCiTest, CountsTestsPerformed) {
  const auto data = xor_dataset(500, 41);
  DiscreteCiTest test(data, {});
  EXPECT_EQ(test.tests_performed(), 0);
  test.test(0, 1, {});
  test.begin_group(0, 2);
  test.test_in_group({});
  EXPECT_EQ(test.tests_performed(), 2);
  test.reset_counter();
  EXPECT_EQ(test.tests_performed(), 0);
}

TEST(DiscreteCiTest, CloneIsIndependentInstance) {
  const auto data = xor_dataset(500, 43);
  DiscreteCiTest test(data, {});
  auto copy = test.clone();
  copy->test(0, 1, {});
  EXPECT_EQ(copy->tests_performed(), 1);
  EXPECT_EQ(test.tests_performed(), 0);
}

TEST(DiscreteCiTest, RequiresColumnMajorBuffer) {
  const auto data = xor_dataset(50, 47, DataLayout::kRowMajor);
  EXPECT_THROW(DiscreteCiTest(data, {}), std::invalid_argument);
}

TEST(DiscreteCiTest, DeterministicAcrossRuns) {
  const auto data = xor_dataset(1000, 53);
  DiscreteCiTest a(data, {});
  DiscreteCiTest b(data, {});
  const std::vector<VarId> z{2};
  EXPECT_DOUBLE_EQ(a.test(0, 1, z).statistic, b.test(0, 1, z).statistic);
}

TEST(DiscreteCiTest, TableBuilderOptionSelectsTheKernel) {
  const auto data = xor_dataset(750, 91);
  const std::vector<VarId> z{2};
  CiTestOptions scalar_options;
  scalar_options.table_builder = "scalar";
  DiscreteCiTest scalar_test(data, scalar_options);
  EXPECT_EQ(scalar_test.table_builder_name(), "scalar");
  const CiResult reference = scalar_test.test(0, 1, z);

  for (const char* name : {"batched", "simd", "auto"}) {
    CiTestOptions options;
    options.table_builder = name;
    DiscreteCiTest test(data, options);
    EXPECT_FALSE(test.table_builder_name().empty());
    const CiResult result = test.test(0, 1, z);
    EXPECT_DOUBLE_EQ(result.statistic, reference.statistic) << name;
    EXPECT_EQ(result.degrees_of_freedom, reference.degrees_of_freedom)
        << name;
    // clone() keeps the configured kernel.
    EXPECT_EQ(test.clone()->table_builder_name(), test.table_builder_name())
        << name;
  }

  CiTestOptions bad;
  bad.table_builder = "gpu";
  EXPECT_THROW(DiscreteCiTest(data, bad), std::invalid_argument);
}

TEST(DiscreteCiTest, ConstantColumnIsIndependentWithPValueOne) {
  // Column 0 never varies. Declared binary, its empty second row keeps the
  // standard df positive but contributes nothing to G^2 or X^2; inferred
  // with one state, df is 0. Either way no test with it as an endpoint
  // can reject.
  for (const std::int32_t constant_card : {1, 2}) {
    DiscreteDataset data(3, 400, {constant_card, 3, 2}, DataLayout::kBoth);
    Rng rng(59);
    for (Count s = 0; s < 400; ++s) {
      data.set(s, 0, 0);
      data.set(s, 1, static_cast<DataValue>(rng.next_below(3)));
      data.set(s, 2, static_cast<DataValue>(rng.next_below(2)));
    }
    for (const StatisticKind statistic :
         {StatisticKind::kG2, StatisticKind::kPearsonChiSquare}) {
      CiTestOptions options;
      options.statistic = statistic;
      DiscreteCiTest test(data, options);
      const std::vector<VarId> z{2};
      for (const CiResult& result :
           {test.test(0, 1, {}), test.test(1, 0, {}), test.test(0, 1, z),
            test.test(1, 0, z)}) {
        EXPECT_TRUE(result.independent) << constant_card;
        EXPECT_EQ(result.p_value, 1.0) << constant_card;
        EXPECT_EQ(result.statistic, 0.0) << constant_card;
      }
    }
  }
}

TEST(DiscreteCiTest, FewerRowsThanDegreesOfFreedomStaysDefined) {
  // 12 rows against a 6 x 6 x 4 table: df = 5 * 5 * 4 = 100. G^2 is at
  // most 2 * m * ln 6 (about 43), far below df, so the test cannot
  // reject, and every kernel must report the same finite result.
  DiscreteDataset data(3, 12, {6, 6, 4}, DataLayout::kBoth);
  Rng rng(61);
  for (Count s = 0; s < 12; ++s) {
    for (VarId v = 0; v < 3; ++v) {
      data.set(s, v, static_cast<DataValue>(rng.next_below(
                         static_cast<std::uint64_t>(data.cardinality(v)))));
    }
  }
  const std::vector<VarId> z{2};
  CiTestOptions scalar_options;
  scalar_options.table_builder = "scalar";
  DiscreteCiTest scalar_test(data, scalar_options);
  const CiResult reference = scalar_test.test(0, 1, z);
  EXPECT_EQ(reference.degrees_of_freedom, 100);
  EXPECT_TRUE(std::isfinite(reference.statistic));
  EXPECT_GE(reference.p_value, 0.0);
  EXPECT_LE(reference.p_value, 1.0);
  EXPECT_TRUE(reference.independent);
  for (const char* name : {"batched", "simd"}) {
    CiTestOptions options;
    options.table_builder = name;
    DiscreteCiTest test(data, options);
    const CiResult result = test.test(0, 1, z);
    EXPECT_EQ(result.statistic, reference.statistic) << name;
    EXPECT_EQ(result.p_value, reference.p_value) << name;
    EXPECT_EQ(result.degrees_of_freedom, reference.degrees_of_freedom)
        << name;
  }
}

}  // namespace
}  // namespace fastbns
