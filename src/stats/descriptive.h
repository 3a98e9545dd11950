#ifndef FAIRCLEAN_STATS_DESCRIPTIVE_H_
#define FAIRCLEAN_STATS_DESCRIPTIVE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace fairclean {

/// Descriptive statistics over numeric vectors. All functions skip NaN
/// entries (missing cells) and fail if no finite values remain — matching
/// the pandas `skipna` semantics the paper's Python stack relies on.

/// Arithmetic mean of the finite entries.
Result<double> Mean(const std::vector<double>& values);

/// Unbiased sample variance (n-1 denominator) of the finite entries;
/// requires at least 2.
Result<double> SampleVariance(const std::vector<double>& values);

/// Sample standard deviation.
Result<double> SampleStdDev(const std::vector<double>& values);

/// Linear-interpolated percentile (NumPy 'linear' method), p in [0, 100].
Result<double> Percentile(const std::vector<double>& values, double p);

/// Median = 50th percentile.
Result<double> Median(const std::vector<double>& values);

/// Most frequent finite value; ties broken towards the smaller value.
Result<double> NumericMode(const std::vector<double>& values);

/// Most frequent non-missing code; ties broken towards the smaller code.
/// `missing_code` entries are skipped.
Result<int32_t> CodeMode(const std::vector<int32_t>& codes,
                         int32_t missing_code);

}  // namespace fairclean

#endif  // FAIRCLEAN_STATS_DESCRIPTIVE_H_
