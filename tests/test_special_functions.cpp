#include "stats/special_functions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <tuple>
#include <vector>

namespace fastbns {
namespace {

TEST(SpecialFunctions, LogGammaKnownValues) {
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(log_gamma(2.0), 0.0, 1e-12);
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-10);   // Gamma(5) = 4!
  EXPECT_NEAR(log_gamma(0.5), 0.5 * std::log(M_PI), 1e-10);
}

TEST(SpecialFunctions, GammaPQComplementary) {
  for (double a : {0.5, 1.0, 2.5, 10.0, 50.0}) {
    for (double x : {0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 80.0}) {
      EXPECT_NEAR(regularized_gamma_p(a, x) + regularized_gamma_q(a, x), 1.0,
                  1e-10)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(SpecialFunctions, GammaPBoundaries) {
  EXPECT_DOUBLE_EQ(regularized_gamma_p(3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(regularized_gamma_q(3.0, 0.0), 1.0);
  EXPECT_NEAR(regularized_gamma_p(1.0, 700.0), 1.0, 1e-12);
}

TEST(SpecialFunctions, GammaPIsExponentialCdfForShapeOne) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.1, 0.5, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(regularized_gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
}

TEST(SpecialFunctions, GammaPMonotoneInX) {
  double previous = -1.0;
  for (double x = 0.0; x <= 30.0; x += 0.5) {
    const double value = regularized_gamma_p(4.0, x);
    EXPECT_GE(value, previous);
    previous = value;
  }
}

// Critical values of the chi-square distribution: survival(crit, df) = p.
// Reference values from standard chi-square tables.
using Chi2Case = std::tuple<double, double, double>;  // stat, df, expected p

class ChiSquareTable : public ::testing::TestWithParam<Chi2Case> {};

TEST_P(ChiSquareTable, MatchesReference) {
  const auto [stat, df, expected] = GetParam();
  EXPECT_NEAR(chi_square_survival(stat, df), expected, 5e-4)
      << "stat=" << stat << " df=" << df;
}

INSTANTIATE_TEST_SUITE_P(
    CriticalValues, ChiSquareTable,
    ::testing::Values(Chi2Case{3.841, 1, 0.05}, Chi2Case{6.635, 1, 0.01},
                      Chi2Case{5.991, 2, 0.05}, Chi2Case{9.210, 2, 0.01},
                      Chi2Case{7.815, 3, 0.05}, Chi2Case{11.070, 5, 0.05},
                      Chi2Case{18.307, 10, 0.05}, Chi2Case{31.410, 20, 0.05},
                      Chi2Case{2.706, 1, 0.10}, Chi2Case{4.605, 2, 0.10},
                      Chi2Case{124.342, 100, 0.05}));

TEST(ChiSquare, SurvivalAtZeroIsOne) {
  EXPECT_DOUBLE_EQ(chi_square_survival(0.0, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(chi_square_survival(-3.0, 5.0), 1.0);
}

TEST(ChiSquare, SurvivalDecreasesWithStatistic) {
  double previous = 2.0;
  for (double stat = 0.0; stat < 40.0; stat += 1.0) {
    const double p = chi_square_survival(stat, 6.0);
    EXPECT_LE(p, previous);
    previous = p;
  }
}

TEST(ChiSquare, SurvivalIncreasesWithDf) {
  // For a fixed statistic, more degrees of freedom => larger p-value.
  const double stat = 10.0;
  double previous = 0.0;
  for (double df = 1.0; df <= 30.0; df += 1.0) {
    const double p = chi_square_survival(stat, df);
    EXPECT_GE(p, previous);
    previous = p;
  }
}

TEST(ChiSquare, MedianApproximation) {
  // Median of chi2_k is about k(1 - 2/(9k))^3; survival there ~ 0.5.
  for (double df : {2.0, 5.0, 10.0, 50.0}) {
    const double median = df * std::pow(1.0 - 2.0 / (9.0 * df), 3.0);
    EXPECT_NEAR(chi_square_survival(median, df), 0.5, 0.01) << "df=" << df;
  }
}

TEST(ChiSquare, InvalidDfIsNaN) {
  EXPECT_TRUE(std::isnan(chi_square_survival(1.0, 0.0)));
  EXPECT_TRUE(std::isnan(chi_square_survival(1.0, -2.0)));
}

TEST(SpecialFunctions, ConcurrentCallsMatchTheSerialValues) {
  // Every G² test evaluates chi_square_survival (hence log_gamma) on the
  // CI-level worker threads at once. Four threads over the same grid must
  // reproduce the serial values bit for bit; under -fsanitize=thread this
  // case also proves the evaluation touches no shared state.
  std::vector<double> args;
  for (int i = 1; i <= 400; ++i) args.push_back(0.05 * i);
  std::vector<double> serial_lgamma;
  std::vector<double> serial_survival;
  for (const double x : args) {
    serial_lgamma.push_back(log_gamma(x));
    serial_survival.push_back(chi_square_survival(4.0 * x, x));
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> lgammas(kThreads);
  std::vector<std::vector<double>> survivals(kThreads);
  std::vector<std::thread> team;
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&, t] {
      for (int round = 0; round < 25; ++round) {
        lgammas[t].clear();
        survivals[t].clear();
        for (const double x : args) {
          lgammas[t].push_back(log_gamma(x));
          survivals[t].push_back(chi_square_survival(4.0 * x, x));
        }
      }
    });
  }
  for (std::thread& thread : team) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(lgammas[t], serial_lgamma) << "thread " << t;
    EXPECT_EQ(survivals[t], serial_survival) << "thread " << t;
  }
}

}  // namespace
}  // namespace fastbns
