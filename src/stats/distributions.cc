#include "stats/distributions.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace fairclean {

namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-14;
constexpr double kTiny = 1e-300;

// log|Gamma(a)| via the reentrant lgamma_r: std::lgamma also writes the
// process-global `signgam`, a data race when two threads run t-tests
// concurrently.
double LogGamma(double a) {
  int sign = 0;
  return ::lgamma_r(a, &sign);
}

// Series expansion of P(a, x); converges quickly for x < a + 1.
double GammaPSeries(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double term = sum;
  for (int n = 0; n < kMaxIterations; ++n) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::abs(term) < std::abs(sum) * kEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - LogGamma(a));
}

// Continued fraction for Q(a, x); converges quickly for x >= a + 1.
// Modified Lentz's method.
double GammaQContinuedFraction(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < kEpsilon) break;
  }
  return h * std::exp(-x + a * std::log(x) - LogGamma(a));
}

// Continued fraction for the incomplete beta function (Numerical Recipes
// betacf), evaluated with modified Lentz's method.
double BetaContinuedFraction(double a, double b, double x) {
  double qab = a + b;
  double qap = a + 1.0;
  double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < kEpsilon) break;
  }
  return h;
}

}  // namespace

double RegularizedGammaP(double a, double x) {
  FC_CHECK_GT(a, 0.0);
  if (x <= 0.0) return 0.0;
  if (x < a + 1.0) return GammaPSeries(a, x);
  return 1.0 - GammaQContinuedFraction(a, x);
}

double RegularizedGammaQ(double a, double x) {
  FC_CHECK_GT(a, 0.0);
  if (x <= 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - GammaPSeries(a, x);
  return GammaQContinuedFraction(a, x);
}

double RegularizedIncompleteBeta(double a, double b, double x) {
  FC_CHECK_GT(a, 0.0);
  FC_CHECK_GT(b, 0.0);
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  double log_front = LogGamma(a + b) - LogGamma(a) - LogGamma(b) +
                     a * std::log(x) + b * std::log(1.0 - x);
  double front = std::exp(log_front);
  // Use the symmetry relation to stay in the rapidly-converging regime.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

double ChiSquareSurvival(double x, double df) {
  FC_CHECK_GT(df, 0.0);
  if (x <= 0.0) return 1.0;
  return RegularizedGammaQ(df / 2.0, x / 2.0);
}

double StudentTTwoSidedPValue(double t, double df) {
  FC_CHECK_GT(df, 0.0);
  if (!std::isfinite(t)) return 0.0;
  double x = df / (df + t * t);
  return RegularizedIncompleteBeta(df / 2.0, 0.5, x);
}

double NormalCdf(double z) {
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

}  // namespace fairclean
