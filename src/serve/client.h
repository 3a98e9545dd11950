#ifndef FAIRCLEAN_SERVE_CLIENT_H_
#define FAIRCLEAN_SERVE_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/random.h"
#include "common/status.h"
#include "obs/json_lite.h"

namespace fairclean {
namespace serve {

/// One parsed response line of the advisor wire protocol. `json` keeps the
/// full parsed object, so callers can read analysis fields (methods,
/// recommendation, sha256, ...) without re-parsing.
struct AdvisorResponse {
  std::string id;
  std::string status;     ///< wire token: "ok", "unavailable", ...
  std::string error;      ///< "" on success
  int retry_after_ms = 0; ///< server backoff hint (shed responses)
  bool resumable = false; ///< deadline responses: a retry resumes
  std::string raw;        ///< the response line as received (no newline)
  obs::JsonValue json;

  bool ok() const { return status == "ok"; }
  /// True for failures where retrying can succeed: overload shedding
  /// (unavailable), an expired deadline (finished repeats persist), or an
  /// injected/real IO fault on the wire.
  bool Retryable() const {
    return status == "unavailable" || status == "deadline_exceeded" ||
           status == "io_error";
  }
};

/// Largest server backoff hint ParseResponse will honor (10 minutes).
/// A buggy or hostile server must not be able to park a client forever —
/// or crash it: the raw JSON number is a double, and without the clamp a
/// NaN, negative, or out-of-int-range hint is undefined behavior in the
/// int conversion.
constexpr int kMaxRetryAfterMs = 600000;

/// Parses one response line; InvalidArgument when it is not a JSON object
/// or carries no status. retry_after_ms is sanitized to
/// [0, kMaxRetryAfterMs]; a non-finite or negative hint reads as 0.
Result<AdvisorResponse> ParseResponse(const std::string& line);

/// Retry policy of CallWithRetry.
struct BackoffOptions {
  int max_attempts = 6;  ///< total tries, including the first
  int base_ms = 50;      ///< first backoff before jitter
  int max_ms = 2000;     ///< cap per sleep
};

/// Deterministic pre-jitter delay before retry `attempt` (1-based):
/// exponential base_ms * 2^(attempt-1) saturating at max_ms — computed by
/// repeated doubling, so arbitrarily high attempt counts cannot overflow
/// the shift the way `base_ms << (attempt - 1)` did — raised to the
/// server's retry_after hint when that is larger (still capped at max_ms).
int BackoffDelayMs(const BackoffOptions& backoff, int attempt,
                   int retry_after_ms);

/// Blocking line-protocol client with reconnect and jittered exponential
/// backoff — the well-behaved citizen the server's load shedding assumes.
///
/// Backoff: attempt n sleeps uniform(0.5, 1.5) * min(base * 2^n, max_ms)
/// milliseconds, except that a shed response's retry_after_ms hint, when
/// larger, replaces the computed base — the server knows its own drain rate
/// better than the client does. Jitter comes from a seeded Rng, so a load
/// generator's retry schedule is reproducible.
///
/// Not thread-safe; one client per thread (the load generator forks one
/// per simulated client).
class AdvisorClient {
 public:
  AdvisorClient(std::string host, uint16_t port, uint64_t seed = 42);
  ~AdvisorClient();

  AdvisorClient(const AdvisorClient&) = delete;
  AdvisorClient& operator=(const AdvisorClient&) = delete;

  /// Opens the connection if it is not already open.
  Status Connect();
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// One request/response round trip. On a lost connection (EOF, reset, a
  /// fired socket_read/socket_write fault on the server) it reconnects and
  /// retries the send ONCE, then reports IoError.
  Result<AdvisorResponse> Call(const std::string& request_line);

  /// Call, retrying retryable responses and transport failures with
  /// jittered exponential backoff. Returns the last response (or transport
  /// error) when attempts run out.
  Result<AdvisorResponse> CallWithRetry(const std::string& request_line,
                                        const BackoffOptions& backoff = {});

  /// Retries performed by CallWithRetry since construction.
  uint64_t retries() const { return retries_; }

 private:
  Status SendLine(const std::string& line);
  Result<std::string> ReadLine();

  std::string host_;
  uint16_t port_;
  int fd_ = -1;
  std::string buffer_;  ///< bytes read past the last returned line
  Rng rng_;
  uint64_t retries_ = 0;
};

}  // namespace serve
}  // namespace fairclean

#endif  // FAIRCLEAN_SERVE_CLIENT_H_
