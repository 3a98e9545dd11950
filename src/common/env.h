#ifndef FAIRCLEAN_COMMON_ENV_H_
#define FAIRCLEAN_COMMON_ENV_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace fairclean {

/// Reads a string knob from the environment.
std::string GetEnvString(const char* name, const std::string& default_value);

/// Reads a count knob (FAIRCLEAN_SAMPLE, FAIRCLEAN_MAX_RETRIES,
/// FAIRCLEAN_THREADS, FAIRCLEAN_FAULT_SEED): unset/empty yields
/// `default_value`, anything else must be a non-negative decimal integer
/// with no trailing garbage. A typo'd knob is a hard InvalidArgument naming
/// the knob instead of a silent fallback — a misread scale or retry budget
/// invalidates a run without anyone noticing.
Result<int64_t> GetEnvCount(const char* name, int64_t default_value);

/// Reads a budget knob (FAIRCLEAN_TIME_BUDGET_S): unset/empty yields
/// `default_value`, anything else must be a finite non-negative number of
/// seconds with no trailing garbage ("3.5x", "nan", "inf" and "-1" are all
/// InvalidArgument).
Result<double> GetEnvBudgetSeconds(const char* name, double default_value);

}  // namespace fairclean

#endif  // FAIRCLEAN_COMMON_ENV_H_
