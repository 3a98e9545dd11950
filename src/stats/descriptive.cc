#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace fairclean {

namespace {

std::vector<double> FiniteValues(const std::vector<double>& values) {
  std::vector<double> out;
  out.reserve(values.size());
  for (double v : values) {
    if (std::isfinite(v)) out.push_back(v);
  }
  return out;
}

Status EmptyError() {
  return Status::InvalidArgument("no finite values");
}

}  // namespace

Result<double> Mean(const std::vector<double>& values) {
  double sum = 0.0;
  size_t count = 0;
  for (double v : values) {
    if (std::isfinite(v)) {
      sum += v;
      ++count;
    }
  }
  if (count == 0) return EmptyError();
  return sum / static_cast<double>(count);
}

Result<double> SampleVariance(const std::vector<double>& values) {
  std::vector<double> finite = FiniteValues(values);
  if (finite.size() < 2) {
    return Status::InvalidArgument("variance requires at least 2 values");
  }
  double mean = 0.0;
  for (double v : finite) mean += v;
  mean /= static_cast<double>(finite.size());
  double ss = 0.0;
  for (double v : finite) {
    double d = v - mean;
    ss += d * d;
  }
  return ss / static_cast<double>(finite.size() - 1);
}

Result<double> SampleStdDev(const std::vector<double>& values) {
  FC_ASSIGN_OR_RETURN(double var, SampleVariance(values));
  return std::sqrt(var);
}

Result<double> Percentile(const std::vector<double>& values, double p) {
  if (p < 0.0 || p > 100.0) {
    return Status::InvalidArgument("percentile must be in [0, 100]");
  }
  std::vector<double> finite = FiniteValues(values);
  if (finite.empty()) return EmptyError();
  std::sort(finite.begin(), finite.end());
  if (finite.size() == 1) return finite[0];
  double rank = p / 100.0 * static_cast<double>(finite.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, finite.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return finite[lo] + frac * (finite[hi] - finite[lo]);
}

Result<double> Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

Result<double> NumericMode(const std::vector<double>& values) {
  std::map<double, size_t> counts;
  for (double v : values) {
    if (std::isfinite(v)) ++counts[v];
  }
  if (counts.empty()) return EmptyError();
  double best_value = counts.begin()->first;
  size_t best_count = 0;
  for (const auto& [value, count] : counts) {
    if (count > best_count) {
      best_count = count;
      best_value = value;
    }
  }
  return best_value;
}

Result<int32_t> CodeMode(const std::vector<int32_t>& codes,
                         int32_t missing_code) {
  std::map<int32_t, size_t> counts;
  for (int32_t code : codes) {
    if (code != missing_code) ++counts[code];
  }
  if (counts.empty()) {
    return Status::InvalidArgument("no non-missing codes");
  }
  int32_t best_code = counts.begin()->first;
  size_t best_count = 0;
  for (const auto& [code, count] : counts) {
    if (count > best_count) {
      best_count = count;
      best_code = code;
    }
  }
  return best_code;
}

}  // namespace fairclean
