#ifndef FAIRCLEAN_ML_LOGISTIC_REGRESSION_H_
#define FAIRCLEAN_ML_LOGISTIC_REGRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"

namespace fairclean {

/// Hyperparameters for LogisticRegression.
struct LogisticRegressionOptions {
  /// Inverse L2 regularization strength (scikit-learn's C); larger = less
  /// regularization. This is the hyperparameter the paper tunes.
  double c = 1.0;
  /// Maximum IRLS (Newton) iterations.
  int max_iterations = 100;
  /// Convergence threshold on the max absolute coefficient update.
  double tolerance = 1e-8;
};

/// L2-regularized binary logistic regression fitted with iteratively
/// reweighted least squares (Newton's method with a Cholesky solve), which
/// is deterministic and robust on the standardized/one-hot features produced
/// by FeatureEncoder. The intercept is unpenalized.
class LogisticRegression : public Classifier {
 public:
  explicit LogisticRegression(LogisticRegressionOptions options = {})
      : options_(options) {}

  Status Fit(const Matrix& x, const std::vector<int>& y, Rng* rng) override;
  /// Fit on the rows of `x` listed in `rows`, in that order, with `labels`
  /// indexed by absolute row: the same arithmetic as Fit on
  /// x.TakeRows(rows), without copying the rows.
  Status FitRows(const Matrix& x, const std::vector<size_t>& rows,
                 const std::vector<int>& labels);
  std::vector<double> PredictProba(const Matrix& x) const override;
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<LogisticRegression>(options_);
  }
  std::string name() const override { return "log-reg"; }

  /// Fitted coefficients (without intercept); empty before Fit.
  const std::vector<double>& coefficients() const { return weights_; }
  double intercept() const { return intercept_; }

 private:
  /// IRLS over rows[0, n) of `x` (row i itself when `rows` is null), with
  /// labels indexed like `rows`' entries.
  Status FitImpl(const Matrix& x, const size_t* rows, size_t n,
                 const std::vector<int>& labels);

  LogisticRegressionOptions options_;
  std::vector<double> weights_;
  double intercept_ = 0.0;
  bool fitted_ = false;
};

}  // namespace fairclean

#endif  // FAIRCLEAN_ML_LOGISTIC_REGRESSION_H_
