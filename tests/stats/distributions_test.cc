#include "stats/distributions.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace fairclean {
namespace {

// Reference values computed with scipy.stats / scipy.special.

TEST(GammaTest, KnownValues) {
  // P(1, x) = 1 - exp(-x).
  EXPECT_NEAR(RegularizedGammaP(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(RegularizedGammaP(1.0, 2.0), 1.0 - std::exp(-2.0), 1e-12);
  // scipy.special.gammainc(2.5, 3.0) = 0.6937810...
  EXPECT_NEAR(RegularizedGammaP(2.5, 3.0), 0.6937810816778878, 1e-10);
}

TEST(GammaTest, ComplementsSumToOne) {
  for (double a : {0.5, 1.0, 3.0, 10.0}) {
    for (double x : {0.1, 1.0, 5.0, 20.0}) {
      EXPECT_NEAR(RegularizedGammaP(a, x) + RegularizedGammaQ(a, x), 1.0,
                  1e-12);
    }
  }
}

TEST(GammaTest, BoundaryBehaviour) {
  EXPECT_DOUBLE_EQ(RegularizedGammaP(2.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedGammaQ(2.0, 0.0), 1.0);
  EXPECT_NEAR(RegularizedGammaP(1.0, 700.0), 1.0, 1e-12);
}

TEST(GammaTest, MonotoneInX) {
  double previous = 0.0;
  for (double x = 0.1; x < 10.0; x += 0.5) {
    double p = RegularizedGammaP(3.0, x);
    EXPECT_GE(p, previous);
    previous = p;
  }
}

TEST(BetaTest, SymmetryAtHalf) {
  EXPECT_NEAR(RegularizedIncompleteBeta(2.0, 2.0, 0.5), 0.5, 1e-12);
  EXPECT_NEAR(RegularizedIncompleteBeta(5.0, 5.0, 0.5), 0.5, 1e-12);
}

TEST(BetaTest, KnownValues) {
  // I_x(1, b) = 1 - (1-x)^b.
  EXPECT_NEAR(RegularizedIncompleteBeta(1.0, 3.0, 0.3),
              1.0 - std::pow(0.7, 3.0), 1e-12);
  // scipy.special.betainc(2.0, 3.0, 0.4) = 0.5248
  EXPECT_NEAR(RegularizedIncompleteBeta(2.0, 3.0, 0.4), 0.5248, 1e-10);
}

TEST(BetaTest, Boundaries) {
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 1.0), 1.0);
}

TEST(BetaTest, ComplementIdentity) {
  for (double x : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    EXPECT_NEAR(RegularizedIncompleteBeta(2.5, 4.0, x) +
                    RegularizedIncompleteBeta(4.0, 2.5, 1.0 - x),
                1.0, 1e-10);
  }
}

TEST(ChiSquareTest, CriticalValues) {
  // chi2.sf(3.841458820694124, 1) = 0.05.
  EXPECT_NEAR(ChiSquareSurvival(3.841458820694124, 1.0), 0.05, 1e-9);
  // chi2.sf(6.634896601021213, 1) = 0.01.
  EXPECT_NEAR(ChiSquareSurvival(6.634896601021213, 1.0), 0.01, 1e-9);
  // chi2.sf(5.991464547107979, 2) = 0.05.
  EXPECT_NEAR(ChiSquareSurvival(5.991464547107979, 2.0), 0.05, 1e-9);
}

TEST(ChiSquareTest, ZeroStatistic) {
  EXPECT_DOUBLE_EQ(ChiSquareSurvival(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(ChiSquareSurvival(-1.0, 1.0), 1.0);
}

TEST(StudentTTest, CriticalValues) {
  // 2 * t.sf(2.228138851986273, 10) = 0.05.
  EXPECT_NEAR(StudentTTwoSidedPValue(2.228138851986273, 10.0), 0.05, 1e-9);
  // 2 * t.sf(2.0, 10) = 0.07338803.
  EXPECT_NEAR(StudentTTwoSidedPValue(2.0, 10.0), 0.07338803, 1e-7);
  // Symmetric in t.
  EXPECT_NEAR(StudentTTwoSidedPValue(-2.0, 10.0),
              StudentTTwoSidedPValue(2.0, 10.0), 1e-12);
}

TEST(StudentTTest, ZeroAndInfinity) {
  EXPECT_NEAR(StudentTTwoSidedPValue(0.0, 5.0), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(
      StudentTTwoSidedPValue(std::numeric_limits<double>::infinity(), 5.0),
      0.0);
}

// Closed-form oracles at one and two degrees of freedom, swept across the
// ranges impact verdicts reach (deep tails included). Every form below is
// free of cancellation, so a relative bound holds even where the p-value
// is tiny.

// Log-spaced points from `lo` to `hi`, both included.
std::vector<double> LogSweep(double lo, double hi, int points) {
  std::vector<double> out;
  const double step = std::log(hi / lo) / (points - 1);
  for (int i = 0; i < points; ++i) out.push_back(lo * std::exp(step * i));
  return out;
}

constexpr double kClosedFormRelTol = 1e-9;

TEST(ChiSquareTest, OneDegreeMatchesErfcClosedForm) {
  for (double x : LogSweep(1e-6, 200.0, 401)) {
    const double want = std::erfc(std::sqrt(x / 2.0));
    EXPECT_NEAR(ChiSquareSurvival(x, 1.0), want, kClosedFormRelTol * want)
        << "x=" << x;
  }
}

TEST(ChiSquareTest, TwoDegreesMatchesExpClosedForm) {
  for (double x : LogSweep(1e-6, 200.0, 401)) {
    const double want = std::exp(-x / 2.0);
    EXPECT_NEAR(ChiSquareSurvival(x, 2.0), want, kClosedFormRelTol * want)
        << "x=" << x;
  }
}

TEST(StudentTTest, OneDegreeMatchesCauchyClosedForm) {
  for (double magnitude : LogSweep(1e-6, 1e6, 481)) {
    const double want = 2.0 * std::atan(1.0 / magnitude) / std::acos(-1.0);
    for (double t : {magnitude, -magnitude}) {
      EXPECT_NEAR(StudentTTwoSidedPValue(t, 1.0), want,
                  kClosedFormRelTol * want)
          << "t=" << t;
    }
  }
}

TEST(StudentTTest, TwoDegreesMatchesClosedForm) {
  for (double magnitude : LogSweep(1e-6, 1e6, 481)) {
    // 1 - |t|/s with s = sqrt(2 + t^2), rewritten to avoid cancellation.
    const double s = std::sqrt(2.0 + magnitude * magnitude);
    const double want = 2.0 / (s * (s + magnitude));
    for (double t : {magnitude, -magnitude}) {
      EXPECT_NEAR(StudentTTwoSidedPValue(t, 2.0), want,
                  kClosedFormRelTol * want)
          << "t=" << t;
    }
  }
}

TEST(NormalCdfTest, KnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(NormalCdf(-1.959963984540054), 0.025, 1e-9);
}

}  // namespace
}  // namespace fairclean
