#include "ml/logistic_regression.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ml/linalg.h"
#include "ml/metrics.h"
#include "tests/ml/test_data.h"

namespace fairclean {
namespace {

TEST(LogisticRegressionTest, LearnsSeparableBlobs) {
  test::BlobData data = test::MakeBlobs(400, 3, 4.0, 1);
  LogisticRegression model;
  Rng rng(2);
  ASSERT_TRUE(model.Fit(data.x, data.y, &rng).ok());
  double accuracy = AccuracyScore(data.y, model.Predict(data.x));
  EXPECT_GT(accuracy, 0.9);
}

TEST(LogisticRegressionTest, CoefficientSignMatchesSeparation) {
  test::BlobData data = test::MakeBlobs(400, 3, 4.0, 3);
  LogisticRegression model;
  Rng rng(4);
  ASSERT_TRUE(model.Fit(data.x, data.y, &rng).ok());
  ASSERT_EQ(model.coefficients().size(), 3u);
  EXPECT_GT(model.coefficients()[0], 0.5);  // axis 0 separates the classes
  EXPECT_LT(std::abs(model.coefficients()[1]), 0.5);
}

TEST(LogisticRegressionTest, ProbabilitiesInUnitInterval) {
  test::BlobData data = test::MakeBlobs(200, 2, 2.0, 5);
  LogisticRegression model;
  Rng rng(6);
  ASSERT_TRUE(model.Fit(data.x, data.y, &rng).ok());
  for (double p : model.PredictProba(data.x)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(LogisticRegressionTest, StrongerRegularizationShrinksWeights) {
  test::BlobData data = test::MakeBlobs(300, 3, 4.0, 7);
  LogisticRegressionOptions weak;
  weak.c = 100.0;
  LogisticRegressionOptions strong;
  strong.c = 0.01;
  LogisticRegression weak_model(weak);
  LogisticRegression strong_model(strong);
  Rng rng(8);
  ASSERT_TRUE(weak_model.Fit(data.x, data.y, &rng).ok());
  ASSERT_TRUE(strong_model.Fit(data.x, data.y, &rng).ok());
  double weak_norm = 0.0;
  double strong_norm = 0.0;
  for (double w : weak_model.coefficients()) weak_norm += w * w;
  for (double w : strong_model.coefficients()) strong_norm += w * w;
  EXPECT_GT(weak_norm, strong_norm);
}

TEST(LogisticRegressionTest, InterceptCapturesBaseRate) {
  // All labels positive except a few: intercept must be strongly positive.
  Matrix x(100, 1);
  std::vector<int> y(100, 1);
  Rng noise(9);
  for (size_t i = 0; i < 100; ++i) x(i, 0) = noise.Normal(0.0, 1.0);
  for (size_t i = 0; i < 5; ++i) y[i] = 0;
  LogisticRegression model;
  Rng rng(10);
  ASSERT_TRUE(model.Fit(x, y, &rng).ok());
  EXPECT_GT(model.intercept(), 1.0);
}

TEST(LogisticRegressionTest, DeterministicFit) {
  test::BlobData data = test::MakeBlobs(200, 2, 3.0, 11);
  LogisticRegression a;
  LogisticRegression b;
  Rng rng_a(1);
  Rng rng_b(2);  // rng is unused by IRLS; fits must still agree
  ASSERT_TRUE(a.Fit(data.x, data.y, &rng_a).ok());
  ASSERT_TRUE(b.Fit(data.x, data.y, &rng_b).ok());
  for (size_t i = 0; i < a.coefficients().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.coefficients()[i], b.coefficients()[i]);
  }
}

TEST(LogisticRegressionTest, RejectsBadInput) {
  Matrix x(2, 1);
  LogisticRegression model;
  Rng rng(1);
  EXPECT_FALSE(model.Fit(x, {1}, &rng).ok());  // size mismatch
  Matrix empty(0, 1);
  EXPECT_FALSE(model.Fit(empty, {}, &rng).ok());
  LogisticRegressionOptions bad;
  bad.c = 0.0;
  LogisticRegression bad_model(bad);
  EXPECT_FALSE(bad_model.Fit(x, {0, 1}, &rng).ok());
}

TEST(LogisticRegressionTest, SingleClassTrainingStillFits) {
  // Degenerate but must not crash or diverge: regularization keeps the
  // problem well-posed.
  Matrix x(50, 2);
  Rng noise(12);
  for (size_t i = 0; i < 50; ++i) {
    x(i, 0) = noise.Normal(0.0, 1.0);
    x(i, 1) = noise.Normal(0.0, 1.0);
  }
  std::vector<int> y(50, 1);
  LogisticRegression model;
  Rng rng(13);
  ASSERT_TRUE(model.Fit(x, y, &rng).ok());
  std::vector<double> proba = model.PredictProba(x);
  for (double p : proba) EXPECT_GT(p, 0.5);
}

TEST(LogisticRegressionTest, CloneIsUntrainedWithSameOptions) {
  LogisticRegressionOptions options;
  options.c = 2.5;
  LogisticRegression model(options);
  std::unique_ptr<Classifier> clone = model.Clone();
  EXPECT_EQ(clone->name(), "log-reg");
  test::BlobData data = test::MakeBlobs(100, 2, 3.0, 14);
  Rng rng(15);
  EXPECT_TRUE(clone->Fit(data.x, data.y, &rng).ok());
}

// FitRows over row indices must equal Fit over the copied rows, bit for
// bit, including an index order that is not ascending.
TEST(LogisticRegressionTest, FitRowsMatchesFitOnCopiedRows) {
  test::BlobData data = test::MakeBlobs(120, 3, 1.5, 16);
  std::vector<size_t> rows;
  for (size_t i = 119; i >= 30; i -= 3) rows.push_back(i);
  std::vector<int> labels;
  for (size_t row : rows) labels.push_back(data.y[row]);
  LogisticRegression copied;
  Rng rng(17);
  ASSERT_TRUE(copied.Fit(data.x.TakeRows(rows), labels, &rng).ok());
  LogisticRegression indexed;
  ASSERT_TRUE(indexed.FitRows(data.x, rows, data.y).ok());
  EXPECT_EQ(indexed.coefficients(), copied.coefficients());
  EXPECT_EQ(indexed.intercept(), copied.intercept());
  EXPECT_FALSE(indexed.FitRows(data.x, {0, 120}, data.y).ok());
}

// IRLS as FitImpl ran it before it skipped zero products: every row's
// z, gradient and Hessian loop over all d columns. Returns beta (the
// intercept last), or the solver's error.
Result<std::vector<double>> ReferenceIrls(const Matrix& x,
                                          const std::vector<size_t>& rows,
                                          const std::vector<int>& labels,
                                          const LogisticRegressionOptions& o) {
  auto sigmoid = [](double z) {
    if (z >= 0.0) return 1.0 / (1.0 + std::exp(-z));
    double e = std::exp(z);
    return e / (1.0 + e);
  };
  size_t n = rows.size();
  size_t d = x.cols();
  size_t dim = d + 1;
  double lambda = 1.0 / o.c;
  std::vector<double> beta(dim, 0.0);
  std::vector<double> proba(n, 0.5);
  for (int iter = 0; iter < o.max_iterations; ++iter) {
    std::vector<double> grad(dim, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double* row = x.Row(rows[i]);
      double z = beta[d];
      for (size_t j = 0; j < d; ++j) z += beta[j] * row[j];
      double p = sigmoid(z);
      proba[i] = p;
      double r = p - static_cast<double>(labels[rows[i]]);
      for (size_t j = 0; j < d; ++j) grad[j] += r * row[j];
      grad[d] += r;
    }
    for (size_t j = 0; j < d; ++j) grad[j] += lambda * beta[j];
    std::vector<double> hess(dim * dim, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double* row = x.Row(rows[i]);
      double s = proba[i] * (1.0 - proba[i]);
      if (s < 1e-10) s = 1e-10;
      for (size_t j = 0; j < d; ++j) {
        double sj = s * row[j];
        for (size_t k = 0; k <= j; ++k) hess[j * dim + k] += sj * row[k];
        hess[d * dim + j] += sj;
      }
      hess[d * dim + d] += s;
    }
    for (size_t j = 0; j < d; ++j) hess[j * dim + j] += lambda;
    for (size_t j = 0; j < dim; ++j) {
      for (size_t k = j + 1; k < dim; ++k) hess[j * dim + k] = hess[k * dim + j];
    }
    Result<std::vector<double>> step =
        SolveCholeskyWithJitter(std::move(hess), grad, dim);
    if (!step.ok()) return step.status();
    double max_update = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      beta[j] -= (*step)[j];
      max_update = std::max(max_update, std::abs((*step)[j]));
    }
    if (max_update < o.tolerance) break;
  }
  return beta;
}

// A one-hot style matrix: two categorical blocks (one of them sometimes
// all-zero, a missing category), a 0/1 column holding -0.0 for its zeros
// on some rows, an all-zero column, and two continuous columns.
Matrix MakeOneHotMatrix(size_t n, uint64_t seed, std::vector<int>* labels) {
  Rng rng(seed);
  Matrix x(n, 11);
  labels->resize(n);
  for (size_t i = 0; i < n; ++i) {
    int a = static_cast<int>(rng.UniformInt(0, 3));
    for (int k = 0; k < 3; ++k) x(i, static_cast<size_t>(k)) = a == k;
    int b = static_cast<int>(rng.UniformInt(0, 2));
    for (int k = 0; k < 3; ++k) x(i, 3 + static_cast<size_t>(k)) = b == k;
    x(i, 6) = rng.Bernoulli(0.5) ? 1.0 : (rng.Bernoulli(0.5) ? -0.0 : 0.0);
    x(i, 7) = 0.0;
    x(i, 8) = rng.Normal(0.0, 1.0);
    x(i, 9) = rng.Bernoulli(0.3) ? 0.0 : rng.Normal(1.0, 2.0);
    x(i, 10) = rng.Bernoulli(0.5) ? -0.0 : 1.0;
    double logit = 0.8 * x(i, 0) - 0.6 * x(i, 4) + 0.5 * x(i, 8) - 0.2;
    (*labels)[i] = rng.Bernoulli(1.0 / (1.0 + std::exp(-logit))) ? 1 : 0;
  }
  return x;
}

bool SameBitsOrBothNaN(double expected, double actual) {
  if (std::isnan(expected)) return std::isnan(actual);
  return std::memcmp(&expected, &actual, sizeof expected) == 0;
}

// The fit against the dense reference: the same status, and coefficients
// and intercept bit for bit (NaN where the reference is NaN).
void ExpectMatchesReference(const Matrix& x, const std::vector<size_t>& rows,
                            const std::vector<int>& labels, double c) {
  LogisticRegressionOptions options;
  options.c = c;
  Result<std::vector<double>> expected =
      ReferenceIrls(x, rows, labels, options);
  LogisticRegression model(options);
  Status status = model.FitRows(x, rows, labels);
  ASSERT_EQ(status.ok(), expected.ok()) << status.ToString();
  if (!status.ok()) return;
  ASSERT_EQ(model.coefficients().size(), x.cols());
  for (size_t j = 0; j < x.cols(); ++j) {
    EXPECT_TRUE(SameBitsOrBothNaN((*expected)[j], model.coefficients()[j]))
        << "coefficient " << j << ": " << model.coefficients()[j] << " vs "
        << (*expected)[j];
  }
  EXPECT_TRUE(SameBitsOrBothNaN(expected->back(), model.intercept()))
      << model.intercept() << " vs " << expected->back();
}

TEST(LogisticRegressionTest, ZeroSkippingMatchesDenseReference) {
  std::vector<int> labels;
  Matrix x = MakeOneHotMatrix(240, 21, &labels);
  std::vector<size_t> all(x.rows());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  // FitRows subsets: a fold-like subset and a reversed, strided one.
  std::vector<size_t> fold;
  for (size_t i = 0; i < x.rows(); ++i) {
    if (i % 3 != 1) fold.push_back(i);
  }
  std::vector<size_t> strided;
  for (size_t i = x.rows(); i >= 5; i -= 5) strided.push_back(i - 1);
  for (double c : {0.1, 1.0, 10.0}) {
    for (const std::vector<size_t>* rows : {&all, &fold, &strided}) {
      SCOPED_TRACE("C " + std::to_string(c) + " rows " +
                   std::to_string(rows->size()));
      ExpectMatchesReference(x, *rows, labels, c);
    }
  }
  // Fit over the whole matrix takes the same path as FitRows over all rows.
  LogisticRegression whole;
  Rng rng(1);
  ASSERT_TRUE(whole.Fit(x, labels, &rng).ok());
  LogisticRegression indexed;
  ASSERT_TRUE(indexed.FitRows(x, all, labels).ok());
  EXPECT_EQ(whole.coefficients(), indexed.coefficients());
}

// An inf or a NaN entry makes inf * 0 or NaN * 0 a NaN, so rows holding
// one must keep the dense loops, and a non-finite beta must too.
TEST(LogisticRegressionTest, NonFiniteEntriesMatchDenseReference) {
  for (double bad : {std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<int> labels;
    Matrix x = MakeOneHotMatrix(90, 22, &labels);
    x(17, 9) = bad;
    std::vector<size_t> all(x.rows());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    // Without the row, only the rows the fit reads count.
    std::vector<size_t> without(all);
    without.erase(without.begin() + 17);
    for (double c : {0.1, 1.0, 10.0}) {
      SCOPED_TRACE(std::to_string(bad) + " C " + std::to_string(c));
      ExpectMatchesReference(x, all, labels, c);
      ExpectMatchesReference(x, without, labels, c);
    }
  }
}

}  // namespace
}  // namespace fairclean
