#include "common/status.h"

#include <cstdio>
#include <cstdlib>

namespace fairclean {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kNotImplemented:
      return "NotImplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  out += ": ";
  out += message_;
  return out;
}

namespace internal {

void DieOnBadResult(const Status& status) {
  std::fprintf(stderr, "fairclean: ValueOrDie on error result: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace internal
}  // namespace fairclean
