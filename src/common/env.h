#ifndef FAIRCLEAN_COMMON_ENV_H_
#define FAIRCLEAN_COMMON_ENV_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace fairclean {

/// Reads a string knob from the environment.
std::string GetEnvString(const char* name, const std::string& default_value);

/// Parses `text` as a count: a non-negative decimal integer with no
/// trailing garbage. `name` (a knob or a flag) labels the InvalidArgument.
Result<int64_t> ParseCount(const char* name, const char* text);

/// Reads a count knob (FAIRCLEAN_SAMPLE, FAIRCLEAN_MAX_RETRIES,
/// FAIRCLEAN_THREADS, FAIRCLEAN_FAULT_SEED, queue depths): unset/empty
/// yields `default_value`, anything else must parse with ParseCount. A
/// typo'd knob is a hard InvalidArgument instead of a silent fallback — a
/// misread scale or retry budget invalidates a run without anyone noticing.
Result<int64_t> GetEnvCount(const char* name, int64_t default_value);

/// Parses `text` as a duration in seconds: a finite non-negative double
/// with no trailing garbage ("3.5x", "nan", "inf" and "-1" are all
/// InvalidArgument). `name` (a knob or a flag) labels the error.
Result<double> ParseSeconds(const char* name, const char* text);

/// Reads a budget/duration knob (FAIRCLEAN_TIME_BUDGET_S,
/// FAIRCLEAN_SERVE_DEADLINE_S): unset/empty yields `default_value`,
/// anything else must parse with ParseSeconds.
Result<double> GetEnvBudgetSeconds(const char* name, double default_value);

}  // namespace fairclean

#endif  // FAIRCLEAN_COMMON_ENV_H_
