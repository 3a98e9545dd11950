#include "serve/protocol.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "core/cleaning.h"
#include "datasets/generator.h"
#include "fairness/fairness_metrics.h"
#include "ml/tuning.h"
#include "obs/json_lite.h"

namespace fairclean {
namespace serve {

namespace {

std::string JsonDouble(double value) { return StrFormat("%.17g", value); }

Result<AdvisorRequest::Op> OpByName(const std::string& name) {
  if (name == "analyze" || name.empty()) return AdvisorRequest::Op::kAnalyze;
  if (name == "ping") return AdvisorRequest::Op::kPing;
  if (name == "stats") return AdvisorRequest::Op::kStats;
  if (name == "pause") return AdvisorRequest::Op::kPause;
  if (name == "resume") return AdvisorRequest::Op::kResume;
  if (name == "shutdown") return AdvisorRequest::Op::kShutdown;
  if (name == "metrics") return AdvisorRequest::Op::kMetrics;
  if (name == "trace") return AdvisorRequest::Op::kTrace;
  if (name == "flight") return AdvisorRequest::Op::kFlight;
  return Status::InvalidArgument("unknown op \"" + name + "\"");
}

Status ValidateName(const std::string& value,
                    const std::vector<std::string>& known,
                    const char* what) {
  if (std::find(known.begin(), known.end(), value) != known.end()) {
    return Status::OK();
  }
  std::string known_list;
  for (const std::string& name : known) {
    if (!known_list.empty()) known_list += ", ";
    known_list += name;
  }
  return Status::InvalidArgument(StrFormat("unknown %s \"%s\" (known: %s)",
                                           what, value.c_str(),
                                           known_list.c_str()));
}

}  // namespace

Result<AdvisorRequest> ParseRequest(const std::string& line) {
  obs::JsonValue value;
  std::string error;
  if (!obs::JsonValue::Parse(line, &value, &error)) {
    return Status::InvalidArgument("bad request JSON: " + error);
  }
  if (!value.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  AdvisorRequest request;
  request.id = value.StringOr("id", "");
  FC_ASSIGN_OR_RETURN(request.op, OpByName(value.StringOr("op", "analyze")));
  if (request.op == AdvisorRequest::Op::kMetrics) {
    request.format = value.StringOr("format", "json");
    if (request.format != "json" && request.format != "prometheus") {
      return Status::InvalidArgument(
          "metrics format must be \"json\" or \"prometheus\", got \"" +
          request.format + "\"");
    }
    return request;
  }
  if (request.op == AdvisorRequest::Op::kTrace) {
    request.trace_id = value.StringOr("trace_id", "");
    return request;
  }
  if (request.op == AdvisorRequest::Op::kFlight) {
    request.path = value.StringOr("path", "");
    return request;
  }
  if (request.op != AdvisorRequest::Op::kAnalyze) return request;

  request.dataset = value.StringOr("dataset", "");
  request.error_type = value.StringOr("error_type", "");
  request.model = value.StringOr("model", "");
  request.group = value.StringOr("group", "");
  request.metric = value.StringOr("metric", "");
  request.deadline_s = value.NumberOr("deadline_s", 0.0);

  FC_RETURN_IF_ERROR(
      ValidateName(request.dataset, AllDatasetNames(), "dataset"));
  // A valid error type is one with at least one cleaning method.
  Result<std::vector<CleaningMethod>> methods =
      CleaningMethodsFor(request.error_type);
  if (!methods.ok()) return methods.status();
  FC_RETURN_IF_ERROR(ValidateName(request.model, AllModelNames(), "model"));
  if (!request.metric.empty()) {
    Result<FairnessMetric> metric = FairnessMetricByName(request.metric);
    if (!metric.ok()) return metric.status();
  }
  if (!std::isfinite(request.deadline_s) || request.deadline_s < 0.0) {
    return Status::InvalidArgument(
        "deadline_s must be a finite non-negative number of seconds");
  }
  return request;
}

const char* StatusCodeToken(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kAlreadyExists:
      return "already_exists";
    case StatusCode::kIoError:
      return "io_error";
    case StatusCode::kNotImplemented:
      return "not_implemented";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kUnavailable:
      return "unavailable";
  }
  return "internal";
}

std::string RenderAnalysis(const std::string& id,
                           const AdvisorAnalysis& analysis) {
  std::string out = "{";
  out += "\"id\":" + obs::JsonQuote(id);
  out += ",\"status\":\"ok\"";
  if (!analysis.trace_id.empty()) {
    out += ",\"trace\":" + obs::JsonQuote(analysis.trace_id);
  }
  out += ",\"cell\":" + obs::JsonQuote(analysis.cell_id);
  out += ",\"cache_file\":" + obs::JsonQuote(analysis.cache_file);
  out += ",\"sha256\":" + obs::JsonQuote(analysis.sha256);
  out += StrFormat(",\"repeats\":%zu", analysis.repeats);
  out += StrFormat(",\"cache_hit\":%s", analysis.cache_hit ? "true" : "false");
  out += ",\"group\":" + obs::JsonQuote(analysis.group);
  out += ",\"metric\":" + obs::JsonQuote(analysis.metric);
  out += ",\"alpha\":" + JsonDouble(analysis.alpha);
  out += ",\"methods\":[";
  bool first = true;
  for (const MethodImpact& method : analysis.methods) {
    out += StrFormat(
        "%s{\"method\":%s,\"fairness\":%s,\"accuracy\":%s,"
        "\"unfairness_delta\":%s,\"accuracy_delta\":%s,\"admissible\":%s}",
        first ? "" : ",", obs::JsonQuote(method.method).c_str(),
        obs::JsonQuote(ImpactName(method.impact.fairness)).c_str(),
        obs::JsonQuote(ImpactName(method.impact.accuracy)).c_str(),
        JsonDouble(method.impact.unfairness_delta).c_str(),
        JsonDouble(method.impact.accuracy_delta).c_str(),
        method.admissible ? "true" : "false");
    first = false;
  }
  out += "]";
  out += ",\"recommendation\":" + obs::JsonQuote(analysis.recommendation);
  out += "}\n";
  return out;
}

std::string RenderError(const std::string& id, const Status& status,
                        int retry_after_ms) {
  std::string out = "{";
  out += "\"id\":" + obs::JsonQuote(id);
  out += std::string(",\"status\":\"") + StatusCodeToken(status.code()) + "\"";
  out += ",\"error\":" + obs::JsonQuote(status.message());
  if (retry_after_ms > 0) {
    out += StrFormat(",\"retry_after_ms\":%d", retry_after_ms);
  }
  if (status.code() == StatusCode::kDeadlineExceeded) {
    // Completed repeats are persisted as slices; a retry resumes instead
    // of restarting, so the client should come back.
    out += ",\"resumable\":true";
  }
  out += "}\n";
  return out;
}

std::string RenderPong(const std::string& id) {
  return "{\"id\":" + obs::JsonQuote(id) +
         ",\"status\":\"ok\",\"pong\":true}\n";
}

std::string RenderStats(const std::string& id, const ServerStats& stats) {
  return StrFormat(
      "{\"id\":%s,\"status\":\"ok\",\"accepted\":%llu,\"shed\":%llu,"
      "\"ok\":%llu,\"failed\":%llu,\"deadline_exceeded\":%llu,"
      "\"queue_depth\":%llu,\"connections\":%llu,\"paused\":%s}\n",
      obs::JsonQuote(id).c_str(),
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.ok),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.deadline_exceeded),
      static_cast<unsigned long long>(stats.queue_depth),
      static_cast<unsigned long long>(stats.connections),
      stats.paused ? "true" : "false");
}

std::string RenderAck(const std::string& id, const char* op) {
  return "{\"id\":" + obs::JsonQuote(id) + ",\"status\":\"ok\",\"op\":\"" +
         op + "\"}\n";
}

std::string RenderMetrics(const std::string& id, const std::string& format,
                          const std::string& payload) {
  std::string out = "{\"id\":" + obs::JsonQuote(id) + ",\"status\":\"ok\"";
  out += ",\"format\":" + obs::JsonQuote(format);
  if (format == "prometheus") {
    out += ",\"exposition\":" + obs::JsonQuote(payload);
  } else {
    // The payload is the registry's ToJsonArray output: already JSON.
    out += ",\"metrics\":" + payload;
  }
  out += "}\n";
  return out;
}

std::string RenderTrace(const std::string& id, const std::string& trace_id,
                        const std::vector<TraceSpanView>& spans) {
  std::string out = "{\"id\":" + obs::JsonQuote(id) + ",\"status\":\"ok\"";
  out += ",\"trace\":" + obs::JsonQuote(trace_id);
  out += ",\"spans\":[";
  bool first = true;
  for (const TraceSpanView& span : spans) {
    out += StrFormat(
        "%s{\"name\":%s,\"cat\":%s,\"ph\":\"%c\",\"tid\":%u,"
        "\"depth\":%u,\"ts_us\":%lld,\"dur_us\":%lld}",
        first ? "" : ",", obs::JsonQuote(span.name).c_str(),
        obs::JsonQuote(span.category).c_str(), span.phase,
        static_cast<unsigned>(span.tid), static_cast<unsigned>(span.depth),
        static_cast<long long>(span.ts_us),
        static_cast<long long>(span.dur_us));
    first = false;
  }
  out += "]}\n";
  return out;
}

std::string RenderTraceList(const std::string& id,
                            const std::vector<std::string>& trace_ids) {
  std::string out = "{\"id\":" + obs::JsonQuote(id) + ",\"status\":\"ok\"";
  out += ",\"traces\":[";
  for (size_t i = 0; i < trace_ids.size(); ++i) {
    if (i > 0) out += ',';
    out += obs::JsonQuote(trace_ids[i]);
  }
  out += "]}\n";
  return out;
}

std::string RenderFlight(const std::string& id, const std::string& path) {
  return "{\"id\":" + obs::JsonQuote(id) +
         ",\"status\":\"ok\",\"flight\":" + obs::JsonQuote(path) + "}\n";
}

}  // namespace serve
}  // namespace fairclean
