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

Result<int64_t> GetEnvCount(const char* name, int64_t default_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return default_value;
  char* end = nullptr;
  errno = 0;
  long long parsed = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be a non-negative integer, got \"" +
                                   raw + "\"");
  }
  if (parsed < 0) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be non-negative, got \"" + raw +
                                   "\"");
  }
  return static_cast<int64_t>(parsed);
}

Result<double> GetEnvBudgetSeconds(const char* name, double default_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return default_value;
  char* end = nullptr;
  double parsed = std::strtod(raw, &end);
  if (end == raw || *end != '\0') {
    return Status::InvalidArgument(std::string(name) +
                                   " must be a number of seconds, got \"" +
                                   raw + "\"");
  }
  if (!std::isfinite(parsed)) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be finite, got \"" + raw + "\"");
  }
  if (parsed < 0.0) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be non-negative, got \"" + raw +
                                   "\"");
  }
  return parsed;
}

}  // namespace fairclean
