// Special functions needed for CI-test p-values.
//
// The G^2 statistic is asymptotically chi-square distributed; the p-value
// is the chi-square survival function, i.e. the regularized upper
// incomplete gamma function Q(df/2, G2/2). Implemented from scratch
// (series + Lentz continued fraction) — no external math library.
#pragma once

namespace fastbns {

/// log Gamma(x), x > 0. Thread-safe: touches no global state.
[[nodiscard]] double log_gamma(double x) noexcept;

/// Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a),
/// a > 0, x >= 0.
[[nodiscard]] double regularized_gamma_p(double a, double x) noexcept;

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
[[nodiscard]] double regularized_gamma_q(double a, double x) noexcept;

/// P(Chi2_df > statistic); df > 0. Returns 1.0 for statistic <= 0.
[[nodiscard]] double chi_square_survival(double statistic, double df) noexcept;

/// P(N(0,1) > x), the standard normal survival function — the Fisher-z
/// test's p-value is 2 * standard_normal_survival(|z|). Computed through
/// the incomplete gamma machinery above (Z^2 ~ Chi2_1), keeping the
/// no-external-math-library rule.
[[nodiscard]] double standard_normal_survival(double x) noexcept;

}  // namespace fastbns
