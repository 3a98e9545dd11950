#include "common/env.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace fairclean {

std::string GetEnvString(const char* name, const std::string& default_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return default_value;
  return std::string(raw);
}

namespace {

// `name` (the knob) labels the InvalidArgument.
Result<int64_t> ParseCount(const char* name, const char* text) {
  char* end = nullptr;
  errno = 0;
  long long parsed = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be a non-negative integer, got \"" +
                                   text + "\"");
  }
  if (parsed < 0) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be non-negative, got \"" + text +
                                   "\"");
  }
  return static_cast<int64_t>(parsed);
}

Result<double> ParseSeconds(const char* name, const char* text) {
  char* end = nullptr;
  double parsed = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    return Status::InvalidArgument(std::string(name) +
                                   " must be a number of seconds, got \"" +
                                   text + "\"");
  }
  if (!std::isfinite(parsed)) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be finite, got \"" + text + "\"");
  }
  if (parsed < 0.0) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be non-negative, got \"" + text +
                                   "\"");
  }
  return parsed;
}

}  // namespace

Result<int64_t> GetEnvCount(const char* name, int64_t default_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return default_value;
  return ParseCount(name, raw);
}

Result<double> GetEnvBudgetSeconds(const char* name, double default_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return default_value;
  return ParseSeconds(name, raw);
}

}  // namespace fairclean
