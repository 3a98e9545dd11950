#include "ml/logistic_regression.h"

#include <cstddef>

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "ml/linalg.h"

namespace fairclean {

namespace {

double Sigmoid(double z) {
  if (z >= 0.0) {
    double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

Status LogisticRegression::Fit(const Matrix& x, const std::vector<int>& y,
                               Rng* rng) {
  (void)rng;  // IRLS is deterministic.
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("feature/label size mismatch");
  }
  return FitImpl(x, nullptr, x.rows(), y);
}

Status LogisticRegression::FitRows(const Matrix& x,
                                   const std::vector<size_t>& rows,
                                   const std::vector<int>& labels) {
  if (x.rows() != labels.size()) {
    return Status::InvalidArgument("feature/label size mismatch");
  }
  for (size_t row : rows) {
    if (row >= x.rows()) return Status::InvalidArgument("row out of range");
  }
  return FitImpl(x, rows.data(), rows.size(), labels);
}

Status LogisticRegression::FitImpl(const Matrix& x, const size_t* rows,
                                   size_t n, const std::vector<int>& labels) {
  if (n == 0) {
    return Status::InvalidArgument("empty training set");
  }
  if (options_.c <= 0.0) {
    return Status::InvalidArgument("C must be positive");
  }
  size_t d = x.cols();
  size_t dim = d + 1;  // augmented with intercept (last slot)
  double lambda = 1.0 / options_.c;

  std::vector<double> beta(dim, 0.0);
  std::vector<double> proba(n, 0.5);

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    // Gradient of the penalized negative log-likelihood.
    std::vector<double> grad(dim, 0.0);
    for (size_t i = 0; i < n; ++i) {
      size_t index = rows != nullptr ? rows[i] : i;
      const double* row = x.Row(index);
      double z = beta[d];
      for (size_t j = 0; j < d; ++j) z += beta[j] * row[j];
      double p = Sigmoid(z);
      proba[i] = p;
      double r = p - static_cast<double>(labels[index]);
      for (size_t j = 0; j < d; ++j) grad[j] += r * row[j];
      grad[d] += r;
    }
    for (size_t j = 0; j < d; ++j) grad[j] += lambda * beta[j];

    // Hessian: X_aug^T S X_aug + lambda * diag(1,...,1,0).
    std::vector<double> hess(dim * dim, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double* row = x.Row(rows != nullptr ? rows[i] : i);
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
    // Mirror the lower triangle.
    for (size_t j = 0; j < dim; ++j) {
      for (size_t k = j + 1; k < dim; ++k) {
        hess[j * dim + k] = hess[k * dim + j];
      }
    }

    FC_ASSIGN_OR_RETURN(std::vector<double> step,
                        SolveCholeskyWithJitter(std::move(hess), grad, dim));
    double max_update = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      beta[j] -= step[j];
      max_update = std::max(max_update, std::abs(step[j]));
    }
    if (max_update < options_.tolerance) break;
  }

  weights_.assign(beta.begin(), beta.begin() + static_cast<ptrdiff_t>(d));
  intercept_ = beta[d];
  fitted_ = true;
  return Status::OK();
}

std::vector<double> LogisticRegression::PredictProba(const Matrix& x) const {
  FC_CHECK_MSG(fitted_, "PredictProba before Fit");
  FC_CHECK_EQ(x.cols(), weights_.size());
  std::vector<double> out(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    const double* row = x.Row(i);
    double z = intercept_;
    for (size_t j = 0; j < weights_.size(); ++j) z += weights_[j] * row[j];
    out[i] = Sigmoid(z);
  }
  return out;
}

}  // namespace fairclean
