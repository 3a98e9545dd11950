// Metamorphic properties of the group fairness metrics: swapping the groups
// negates every signed gap, a perfect classifier has zero EO/PP gaps, and
// duplicating every row leaves all gaps unchanged (gaps are differences of
// rates, and rates are invariant under exact count doubling). A per-row
// brute-force oracle pins every signed gap to the last bit.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "fairness/fairness_metrics.h"
#include "fairness/group.h"

namespace fairclean {
namespace {

const FairnessMetric kAllMetrics[] = {
    FairnessMetric::kPredictiveParity,
    FairnessMetric::kEqualOpportunity,
    FairnessMetric::kDemographicParity,
    FairnessMetric::kFalsePositiveRateParity,
    FairnessMetric::kAccuracyParity,
};

struct Population {
  std::vector<int> y_true;
  std::vector<int> y_pred;
  GroupAssignment groups;
};

// A random population where both groups are guaranteed labels and
// predictions of both classes, so every metric is defined (no empty
// denominators, no NaN gaps).
Population RandomPopulation(uint64_t seed, size_t n) {
  Rng rng(seed);
  Population population;
  population.y_true.resize(n);
  population.y_pred.resize(n);
  population.groups.privileged.resize(n);
  population.groups.disadvantaged.resize(n);
  for (size_t i = 0; i < n; ++i) {
    bool privileged = rng.Bernoulli(0.6);
    population.groups.privileged[i] = privileged;
    population.groups.disadvantaged[i] = !privileged;
    population.y_true[i] = rng.Bernoulli(privileged ? 0.45 : 0.35) ? 1 : 0;
    // Noisy predictions correlated with the label.
    double p_positive = population.y_true[i] ? 0.75 : 0.25;
    population.y_pred[i] = rng.Bernoulli(p_positive) ? 1 : 0;
  }
  // Pin one row of each (group, label, prediction) combination so all
  // confusion cells are non-empty regardless of the draw.
  size_t i = 0;
  for (int privileged = 0; privileged < 2; ++privileged) {
    for (int label = 0; label < 2; ++label) {
      for (int prediction = 0; prediction < 2; ++prediction) {
        population.groups.privileged[i] = privileged != 0;
        population.groups.disadvantaged[i] = privileged == 0;
        population.y_true[i] = label;
        population.y_pred[i] = prediction;
        ++i;
      }
    }
  }
  return population;
}

TEST(FairnessProperties, GroupSwapNegatesEverySignedGap) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Population population = RandomPopulation(seed, 400);
    Result<GroupConfusion> confusion = ComputeGroupConfusion(
        population.y_true, population.y_pred, population.groups);
    ASSERT_TRUE(confusion.ok()) << confusion.status().ToString();

    GroupAssignment swapped;
    swapped.privileged = population.groups.disadvantaged;
    swapped.disadvantaged = population.groups.privileged;
    Result<GroupConfusion> swapped_confusion =
        ComputeGroupConfusion(population.y_true, population.y_pred, swapped);
    ASSERT_TRUE(swapped_confusion.ok());

    for (FairnessMetric metric : kAllMetrics) {
      double gap = FairnessGap(metric, *confusion);
      double swapped_gap = FairnessGap(metric, *swapped_confusion);
      ASSERT_TRUE(std::isfinite(gap)) << FairnessMetricName(metric);
      EXPECT_DOUBLE_EQ(gap, -swapped_gap)
          << FairnessMetricName(metric) << " seed " << seed;
      EXPECT_DOUBLE_EQ(AbsoluteFairnessGap(metric, *confusion),
                       AbsoluteFairnessGap(metric, *swapped_confusion))
          << FairnessMetricName(metric) << " seed " << seed;
    }
  }
}

// A perfect classifier has precision = recall = accuracy = 1 in both
// groups, so the paper's two metrics (and accuracy parity) are exactly
// satisfied. Demographic parity is NOT implied — base rates may differ —
// which is the classic impossibility result; the test documents that too.
TEST(FairnessProperties, PerfectClassifierHasZeroEoAndPpGaps) {
  Population population = RandomPopulation(11, 400);
  population.y_pred = population.y_true;
  Result<GroupConfusion> confusion = ComputeGroupConfusion(
      population.y_true, population.y_pred, population.groups);
  ASSERT_TRUE(confusion.ok());

  EXPECT_DOUBLE_EQ(
      FairnessGap(FairnessMetric::kPredictiveParity, *confusion), 0.0);
  EXPECT_DOUBLE_EQ(
      FairnessGap(FairnessMetric::kEqualOpportunity, *confusion), 0.0);
  EXPECT_DOUBLE_EQ(
      FairnessGap(FairnessMetric::kFalsePositiveRateParity, *confusion), 0.0);
  EXPECT_DOUBLE_EQ(FairnessGap(FairnessMetric::kAccuracyParity, *confusion),
                   0.0);
  // Base rates of the two groups differ by construction, so demographic
  // parity is violated even by the perfect classifier.
  EXPECT_NE(FairnessGap(FairnessMetric::kDemographicParity, *confusion), 0.0);
}

TEST(FairnessProperties, DuplicatingEveryRowLeavesAllGapsUnchanged) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    Population population = RandomPopulation(seed, 300);
    Result<GroupConfusion> confusion = ComputeGroupConfusion(
        population.y_true, population.y_pred, population.groups);
    ASSERT_TRUE(confusion.ok());

    Population doubled = population;
    doubled.y_true.insert(doubled.y_true.end(), population.y_true.begin(),
                          population.y_true.end());
    doubled.y_pred.insert(doubled.y_pred.end(), population.y_pred.begin(),
                          population.y_pred.end());
    doubled.groups.privileged.insert(doubled.groups.privileged.end(),
                                     population.groups.privileged.begin(),
                                     population.groups.privileged.end());
    doubled.groups.disadvantaged.insert(
        doubled.groups.disadvantaged.end(),
        population.groups.disadvantaged.begin(),
        population.groups.disadvantaged.end());
    Result<GroupConfusion> doubled_confusion =
        ComputeGroupConfusion(doubled.y_true, doubled.y_pred, doubled.groups);
    ASSERT_TRUE(doubled_confusion.ok());

    EXPECT_EQ(doubled_confusion->privileged.total(),
              2 * confusion->privileged.total());
    EXPECT_EQ(doubled_confusion->disadvantaged.total(),
              2 * confusion->disadvantaged.total());
    for (FairnessMetric metric : kAllMetrics) {
      // Exact equality: every rate is a ratio of counts and both counts
      // double, and scaling numerator and denominator by 2 is exact in
      // binary floating point.
      EXPECT_DOUBLE_EQ(FairnessGap(metric, *confusion),
                       FairnessGap(metric, *doubled_confusion))
          << FairnessMetricName(metric) << " seed " << seed;
    }
  }
}

// Rows outside both groups (possible under intersectional definitions) must
// not influence the confusion matrices.
TEST(FairnessProperties, RowsInNeitherGroupAreIgnored) {
  Population population = RandomPopulation(31, 200);
  Result<GroupConfusion> confusion = ComputeGroupConfusion(
      population.y_true, population.y_pred, population.groups);
  ASSERT_TRUE(confusion.ok());

  Population extended = population;
  for (int i = 0; i < 50; ++i) {
    extended.y_true.push_back(i % 2);
    extended.y_pred.push_back((i / 2) % 2);
    extended.groups.privileged.push_back(false);
    extended.groups.disadvantaged.push_back(false);
  }
  Result<GroupConfusion> extended_confusion = ComputeGroupConfusion(
      extended.y_true, extended.y_pred, extended.groups);
  ASSERT_TRUE(extended_confusion.ok());

  EXPECT_EQ(confusion->privileged.total(),
            extended_confusion->privileged.total());
  EXPECT_EQ(confusion->disadvantaged.total(),
            extended_confusion->disadvantaged.total());
  for (FairnessMetric metric : kAllMetrics) {
    EXPECT_DOUBLE_EQ(FairnessGap(metric, *confusion),
                     FairnessGap(metric, *extended_confusion));
  }
}

// ---------------------------------------------------- brute-force oracle --

// Signed gaps (privileged minus disadvantaged) computed row by row, with
// no ConfusionMatrix, GroupConfusion or FairnessGap in sight. A rate whose
// denominator is zero takes the documented convention of the library:
// precision, recall, positive rate and accuracy read 0 (ConfusionMatrix),
// the false-positive rate is NaN (FairnessGap marks the repeat degenerate).
struct OracleGaps {
  double pp, eo, dp, fpr, ap;

  double For(FairnessMetric metric) const {
    switch (metric) {
      case FairnessMetric::kPredictiveParity:
        return pp;
      case FairnessMetric::kEqualOpportunity:
        return eo;
      case FairnessMetric::kDemographicParity:
        return dp;
      case FairnessMetric::kFalsePositiveRateParity:
        return fpr;
      case FairnessMetric::kAccuracyParity:
        return ap;
    }
    return std::numeric_limits<double>::quiet_NaN();
  }
};

double OracleRate(int64_t numerator, int64_t denominator,
                  double undefined) {
  if (denominator == 0) return undefined;
  return static_cast<double>(numerator) / static_cast<double>(denominator);
}

OracleGaps BruteForceGaps(const Population& population) {
  // counts[group][label][prediction]; group 0 = privileged, 1 =
  // disadvantaged. A row in neither group is skipped.
  int64_t counts[2][2][2] = {};
  for (size_t i = 0; i < population.y_true.size(); ++i) {
    int group;
    if (population.groups.privileged[i]) {
      group = 0;
    } else if (population.groups.disadvantaged[i]) {
      group = 1;
    } else {
      continue;
    }
    ++counts[group][population.y_true[i]][population.y_pred[i]];
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  double pp[2], eo[2], dp[2], fpr[2], ap[2];
  for (int g = 0; g < 2; ++g) {
    const int64_t tp = counts[g][1][1];
    const int64_t fn = counts[g][1][0];
    const int64_t fp = counts[g][0][1];
    const int64_t tn = counts[g][0][0];
    const int64_t n = tp + fn + fp + tn;
    pp[g] = OracleRate(tp, tp + fp, 0.0);
    eo[g] = OracleRate(tp, tp + fn, 0.0);
    dp[g] = OracleRate(tp + fp, n, 0.0);
    fpr[g] = OracleRate(fp, fp + tn, nan);
    ap[g] = OracleRate(tp + tn, n, 0.0);
  }
  return OracleGaps{pp[0] - pp[1], eo[0] - eo[1], dp[0] - dp[1],
                    fpr[0] - fpr[1], ap[0] - ap[1]};
}

// Random labels, predictions and three-way membership (privileged,
// disadvantaged, neither). Small sizes and skewed rates make empty groups
// and zero denominators common.
Population RandomOraclePopulation(Rng* rng) {
  const size_t n = static_cast<size_t>(
      rng->Bernoulli(0.5) ? rng->UniformInt(0, 8) : rng->UniformInt(9, 300));
  const std::vector<double> membership = {rng->Uniform(), rng->Uniform(),
                                          rng->Uniform()};
  const double p_label = rng->Uniform();
  const double p_prediction = rng->Uniform();
  Population population;
  for (size_t i = 0; i < n; ++i) {
    const size_t group = rng->Categorical(membership);
    population.groups.privileged.push_back(group == 0);
    population.groups.disadvantaged.push_back(group == 1);
    population.y_true.push_back(rng->Bernoulli(p_label) ? 1 : 0);
    population.y_pred.push_back(rng->Bernoulli(p_prediction) ? 1 : 0);
  }
  return population;
}

TEST(FairnessOracle, EverySignedGapMatchesPerRowBruteForceToTheLastBit) {
  Rng rng(20231);
  size_t fpr_nan = 0, pp_undefined = 0, neither_rows = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const Population population = RandomOraclePopulation(&rng);
    Result<GroupConfusion> confusion = ComputeGroupConfusion(
        population.y_true, population.y_pred, population.groups);
    ASSERT_TRUE(confusion.ok()) << confusion.status().ToString();
    const OracleGaps expected = BruteForceGaps(population);
    for (FairnessMetric metric : kAllMetrics) {
      const double want = expected.For(metric);
      const double got = FairnessGap(metric, *confusion);
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got))
            << FairnessMetricName(metric) << " trial " << trial;
        EXPECT_TRUE(std::isnan(AbsoluteFairnessGap(metric, *confusion)));
        continue;
      }
      EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
          << FairnessMetricName(metric) << " trial " << trial << ": " << got
          << " vs oracle " << want;
      const double abs_got = AbsoluteFairnessGap(metric, *confusion);
      EXPECT_EQ(std::bit_cast<uint64_t>(abs_got),
                std::bit_cast<uint64_t>(std::fabs(want)))
          << FairnessMetricName(metric) << " trial " << trial;
    }
    fpr_nan += std::isnan(expected.fpr) ? 1 : 0;
    const ConfusionMatrix& priv = confusion->privileged;
    const ConfusionMatrix& dis = confusion->disadvantaged;
    pp_undefined += (priv.tp + priv.fp == 0 || dis.tp + dis.fp == 0) ? 1 : 0;
    for (size_t i = 0; i < population.y_true.size(); ++i) {
      if (!population.groups.privileged[i] &&
          !population.groups.disadvantaged[i]) {
        ++neither_rows;
      }
    }
  }
  // The draw must reach the edge cases the oracle exists for.
  EXPECT_GT(fpr_nan, 100u);
  EXPECT_GT(pp_undefined, 100u);
  EXPECT_GT(neither_rows, 1000u);
}

}  // namespace
}  // namespace fairclean
