#ifndef FAIRCLEAN_COMMON_STATUS_H_
#define FAIRCLEAN_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace fairclean {

/// Error categories used across the library. Modeled after the Status
/// idiom from Arrow/RocksDB: operations that can fail return a Status (or a
/// Result<T>, below) instead of throwing exceptions.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kAlreadyExists = 4,
  kIoError = 5,
  kNotImplemented = 6,
  kInternal = 7,
  kDeadlineExceeded = 8,
};

/// Returns a human-readable name for a status code, e.g. "InvalidArgument".
const char* StatusCodeToString(StatusCode code);

/// A success-or-error outcome carrying a code and a message.
///
/// Statuses are cheap to copy in the OK case (empty message). Use the
/// factory functions (Status::OK(), Status::InvalidArgument(...)) rather
/// than the constructor.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  /// A soft deadline (e.g. FAIRCLEAN_TIME_BUDGET_S) was hit; work stopped
  /// cleanly at a resumable boundary rather than being killed mid-write.
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders as "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. The value is accessible via
/// ValueOrDie()/operator* only when ok(); accessing it otherwise aborts.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (the common success path).
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit construction from an error status. Must not be OK.
  Result(Status status)  // NOLINT(runtime/explicit)
      : repr_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// The error status; Status::OK() when this holds a value.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(repr_);
  }

  const T& ValueOrDie() const& {
    DieIfError();
    return std::get<T>(repr_);
  }
  T& ValueOrDie() & {
    DieIfError();
    return std::get<T>(repr_);
  }
  T&& ValueOrDie() && {
    DieIfError();
    return std::move(std::get<T>(repr_));
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  T&& operator*() && { return std::move(*this).ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

 private:
  void DieIfError() const;

  std::variant<T, Status> repr_;
};

namespace internal {
[[noreturn]] void DieOnBadResult(const Status& status);
}  // namespace internal

template <typename T>
void Result<T>::DieIfError() const {
  if (!ok()) internal::DieOnBadResult(std::get<Status>(repr_));
}

/// Propagates an error Status from the current function.
#define FC_RETURN_IF_ERROR(expr)                  \
  do {                                            \
    ::fairclean::Status _fc_st = (expr);          \
    if (!_fc_st.ok()) return _fc_st;              \
  } while (false)

#define FC_CONCAT_IMPL_(x, y) x##y
#define FC_CONCAT_(x, y) FC_CONCAT_IMPL_(x, y)

/// Assigns the value of a Result expression to `lhs`, or returns its error.
#define FC_ASSIGN_OR_RETURN(lhs, expr)                          \
  FC_ASSIGN_OR_RETURN_IMPL_(FC_CONCAT_(_fc_result_, __LINE__), lhs, expr)

#define FC_ASSIGN_OR_RETURN_IMPL_(result, lhs, expr) \
  auto result = (expr);                              \
  if (!result.ok()) return result.status();          \
  lhs = std::move(result).ValueOrDie();

}  // namespace fairclean

#endif  // FAIRCLEAN_COMMON_STATUS_H_
