#ifndef FAIRCLEAN_SERVE_PROTOCOL_H_
#define FAIRCLEAN_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/runner.h"

namespace fairclean {
namespace serve {

/// One line of the advisor wire protocol, parsed. The protocol is
/// line-delimited JSON over TCP: every request is a single JSON object on
/// one line, every response is a single JSON object on one line, and a
/// connection carries any number of request/response pairs.
///
/// Analyze request (the work op):
///   {"op":"analyze","id":"r1","dataset":"german",
///    "error_type":"missing_values","model":"log-reg",
///    "group":"sex","metric":"PP","deadline_s":5}
/// `group`, `metric` and `deadline_s` are optional: group defaults to the
/// dataset's first sensitive attribute, metric to predictive parity,
/// deadline to the server's FAIRCLEAN_SERVE_DEADLINE_S.
///
/// Control ops: {"op":"ping"|"stats"|"pause"|"resume"|"shutdown","id":...}.
/// pause/resume gate the worker dequeue loop (used by the deterministic
/// overload tests); shutdown asks the server to exit gracefully.
///
/// Telemetry op (DESIGN.md §14): {"op":"metrics","id":...} — live JSON
/// scrape of the global registry.
struct AdvisorRequest {
  enum class Op {
    kAnalyze,
    kPing,
    kStats,
    kPause,
    kResume,
    kShutdown,
    kMetrics
  };

  Op op = Op::kAnalyze;
  std::string id;          ///< client token echoed on the response
  std::string dataset;
  std::string error_type;
  std::string model;
  std::string group;       ///< "" = dataset's first single-attribute group
  std::string metric;      ///< "" = predictive parity
  double deadline_s = 0.0; ///< per-request override; 0 = server default
};

/// Parses a TCP port (the tools' --port flag, FAIRCLEAN_SERVE_PORT): a
/// count as ParseCount reads it, at most 65535. `name` labels the error.
Result<uint16_t> ParsePort(const char* name, const char* text);

/// Parses and validates one request line. Validation happens here, before
/// a worker is consumed: unknown op, missing/unknown dataset, error type,
/// model or metric, and a non-finite or negative deadline are all
/// InvalidArgument.
Result<AdvisorRequest> ParseRequest(const std::string& line);

/// Impact of one cleaning method in an analysis, plus the selector's
/// admissibility verdict (accuracy AND fairness not significantly worse).
struct MethodImpact {
  std::string method;
  ImpactOutcome impact;
  bool admissible = false;
};

/// The advisor's answer for one (dataset, error type, model) cell: the
/// per-method significance verdicts against the dirty baseline and the
/// fairness-aware recommendation ("" = keep the dirty data; no cleaning
/// method is admissible).
struct AdvisorAnalysis {
  std::string cell_id;     ///< "dataset/error_type/model"
  std::string cache_file;  ///< cache record basename ("" = uncached run)
  std::string sha256;      ///< byte identity of the cache record
  size_t repeats = 0;      ///< completed repeats behind the verdicts
  bool cache_hit = false;  ///< served without computing in this process
  std::string group;
  std::string metric;      ///< long metric name
  double alpha = 0.0;      ///< Bonferroni-adjusted level used by the tests
  std::vector<MethodImpact> methods;  ///< selector order: admissible first
  std::string recommendation;
};

/// Counters of the server's request lifecycle, for the stats op and tests.
struct ServerStats {
  uint64_t accepted = 0;          ///< admitted to the queue
  uint64_t shed = 0;              ///< rejected with Unavailable at admission
  uint64_t ok = 0;                ///< answered with status "ok"
  uint64_t failed = 0;            ///< answered with a non-retryable error
  uint64_t deadline_exceeded = 0; ///< expired in queue or mid-computation
  uint64_t queue_depth = 0;       ///< current depth
  uint64_t connections = 0;       ///< currently open connections
  bool paused = false;
};

/// Lower-snake-case wire token for a status code ("ok", "unavailable",
/// "deadline_exceeded", "invalid_argument", ...).
const char* StatusCodeToken(StatusCode code);

/// Response renderers. Every response carries {"id","status"}; error
/// responses add {"error"}; retryable ones add {"retry_after_ms"} and
/// deadline ones {"resumable":true} (the §6 repeat slices written so far
/// persist, so retrying resumes instead of restarting).
std::string RenderAnalysis(const std::string& id,
                           const AdvisorAnalysis& analysis);
std::string RenderError(const std::string& id, const Status& status,
                        int retry_after_ms = 0);
std::string RenderPong(const std::string& id);
std::string RenderStats(const std::string& id, const ServerStats& stats);
/// Ack for pause/resume/shutdown: {"id","status":"ok","op":"<name>"}.
std::string RenderAck(const std::string& id, const char* op);

/// Metrics scrape: {"id","status":"ok","metrics":[...]}, where the array
/// is the registry's ToJsonArray output, verbatim.
std::string RenderMetrics(const std::string& id, const std::string& payload);

}  // namespace serve
}  // namespace fairclean

#endif  // FAIRCLEAN_SERVE_PROTOCOL_H_
