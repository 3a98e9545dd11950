#include "ml/logistic_regression.h"

#include <cstddef>
#include <cstdint>

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

  // Each sparse row's non-zero columns, ascending, listed once per fit:
  // row i's are nonzero[offset[i], offset[i + 1]) (DESIGN.md §8). Every
  // sum below starts at +0.0 (z at the intercept, which like every beta
  // starts at +0.0 and only has steps subtracted), and under
  // round-to-nearest such a sum never becomes -0.0, so adding a ±0 product
  // leaves its bits unchanged: skipping the products that are provably ±0
  // is exact. A row with no zero entry, or with a non-finite one (inf * 0
  // is NaN), keeps the dense loops and lists nothing.
  std::vector<uint32_t> nonzero;
  std::vector<size_t> offset(n + 1, 0);
  std::vector<char> sparse(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const double* row = x.Row(rows != nullptr ? rows[i] : i);
    bool finite = true;
    for (size_t j = 0; j < d; ++j) {
      finite &= std::isfinite(row[j]);
      if (row[j] != 0.0) nonzero.push_back(static_cast<uint32_t>(j));
    }
    sparse[i] = finite && nonzero.size() - offset[i] < d;
    if (!sparse[i]) nonzero.resize(offset[i]);
    offset[i + 1] = nonzero.size();
  }

  std::vector<double> beta(dim, 0.0);
  std::vector<double> proba(n, 0.5);

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    // beta[j] * 0 is ±0 only for a finite beta[j].
    bool beta_finite = true;
    for (double b : beta) beta_finite &= std::isfinite(b);

    // Gradient of the penalized negative log-likelihood.
    std::vector<double> grad(dim, 0.0);
    for (size_t i = 0; i < n; ++i) {
      size_t index = rows != nullptr ? rows[i] : i;
      const double* row = x.Row(index);
      const uint32_t* cols = nonzero.data() + offset[i];
      const uint32_t* cols_end = nonzero.data() + offset[i + 1];
      double z = beta[d];
      if (sparse[i] && beta_finite) {
        for (const uint32_t* c = cols; c != cols_end; ++c) {
          z += beta[*c] * row[*c];
        }
      } else {
        for (size_t j = 0; j < d; ++j) z += beta[j] * row[j];
      }
      double p = Sigmoid(z);
      proba[i] = p;
      double r = p - static_cast<double>(labels[index]);
      if (sparse[i] && std::isfinite(r)) {
        for (const uint32_t* c = cols; c != cols_end; ++c) {
          grad[*c] += r * row[*c];
        }
      } else {
        for (size_t j = 0; j < d; ++j) grad[j] += r * row[j];
      }
      grad[d] += r;
    }
    for (size_t j = 0; j < d; ++j) grad[j] += lambda * beta[j];

    // Hessian: X_aug^T S X_aug + lambda * diag(1,...,1,0).
    std::vector<double> hess(dim * dim, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double* row = x.Row(rows != nullptr ? rows[i] : i);
      double s = proba[i] * (1.0 - proba[i]);
      if (s < 1e-10) s = 1e-10;
      if (sparse[i] && std::isfinite(s)) {
        const uint32_t* cols = nonzero.data() + offset[i];
        const uint32_t* cols_end = nonzero.data() + offset[i + 1];
        for (const uint32_t* cj = cols; cj != cols_end; ++cj) {
          size_t j = *cj;
          double sj = s * row[j];
          for (const uint32_t* ck = cols; ck <= cj; ++ck) {
            hess[j * dim + *ck] += sj * row[*ck];
          }
          hess[d * dim + j] += sj;
        }
      } else {
        for (size_t j = 0; j < d; ++j) {
          double sj = s * row[j];
          for (size_t k = 0; k <= j; ++k) hess[j * dim + k] += sj * row[k];
          hess[d * dim + j] += sj;
        }
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
