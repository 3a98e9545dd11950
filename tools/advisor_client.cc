// Command-line client for the cleaning-advisor server. Sends one request
// and prints the raw response line:
//   advisor_client --port P --op ping|stats|shutdown|metrics
//   advisor_client --port P --dataset german --error-type missing_values
//       --model log-reg [--group sex] [--metric PP] [--deadline-s 5]
//
// Retries are jittered exponential backoff honoring the server's
// retry_after_ms shed hints; --seed makes the whole retry schedule
// reproducible. Exit codes: 0 response ok, 1 transport/parse failure,
// 2 usage error (an unknown flag, a --port that is not a decimal in
// [1, 65535], a --seed that is not a non-negative decimal, or a
// --deadline-s that is not a finite non-negative number), 3 server
// answered with an error status.

#include <cstdio>
#include <cstring>
#include <string>

#include "common/env.h"
#include "common/strings.h"
#include "obs/json_lite.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace {

using namespace fairclean;  // NOLINT

int Usage() {
  std::fprintf(
      stderr,
      "usage: advisor_client --port P [--host H] [--seed S]\n"
      "         (--op ping|stats|shutdown|metrics |\n"
      "          --dataset D --error-type E --model M [--group G]\n"
      "          [--metric F] [--deadline-s X])\n"
      "         [--no-retry]\n");
  return 2;
}

std::string BuildAnalyzeLine(const std::string& id, const std::string& dataset,
                             const std::string& error_type,
                             const std::string& model,
                             const std::string& group,
                             const std::string& metric, double deadline_s) {
  std::string line = "{\"op\":\"analyze\",\"id\":\"" + obs::JsonEscape(id) +
                     "\",\"dataset\":\"" + obs::JsonEscape(dataset) +
                     "\",\"error_type\":\"" + obs::JsonEscape(error_type) +
                     "\",\"model\":\"" + obs::JsonEscape(model) + "\"";
  if (!group.empty()) {
    line += ",\"group\":\"" + obs::JsonEscape(group) + "\"";
  }
  if (!metric.empty()) {
    line += ",\"metric\":\"" + obs::JsonEscape(metric) + "\"";
  }
  if (deadline_s > 0.0) {
    line += StrFormat(",\"deadline_s\":%.6f", deadline_s);
  }
  line += "}";
  return line;
}

int Run(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  uint64_t seed = 42;
  std::string op;
  std::string dataset, error_type, model, group, metric;
  double deadline_s = 0.0;
  bool no_retry = false;

  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    // Prints a malformed flag's error; the caller then exits with usage.
    auto bad = [](const Status& status) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return Usage();
    };
    if (const char* v = value("--host")) {
      host = v;
    } else if (const char* v = value("--port")) {
      Result<uint16_t> parsed = serve::ParsePort("--port", v);
      if (!parsed.ok()) return bad(parsed.status());
      port = *parsed;
    } else if (const char* v = value("--seed")) {
      Result<int64_t> parsed = ParseCount("--seed", v);
      if (!parsed.ok()) return bad(parsed.status());
      seed = static_cast<uint64_t>(*parsed);
    } else if (const char* v = value("--op")) {
      op = v;
    } else if (const char* v = value("--dataset")) {
      dataset = v;
    } else if (const char* v = value("--error-type")) {
      error_type = v;
    } else if (const char* v = value("--model")) {
      model = v;
    } else if (const char* v = value("--group")) {
      group = v;
    } else if (const char* v = value("--metric")) {
      metric = v;
    } else if (const char* v = value("--deadline-s")) {
      Result<double> parsed = ParseSeconds("--deadline-s", v);
      if (!parsed.ok()) return bad(parsed.status());
      deadline_s = *parsed;
    } else if (std::strcmp(argv[i], "--no-retry") == 0) {
      no_retry = true;
    } else {
      return Usage();
    }
  }
  if (port == 0) return Usage();

  std::string line;
  if (!op.empty()) {
    line = "{\"op\":\"" + obs::JsonEscape(op) + "\",\"id\":\"cli\"}";
  } else if (!dataset.empty()) {
    line = BuildAnalyzeLine("cli", dataset, error_type, model, group, metric,
                            deadline_s);
  } else {
    return Usage();
  }

  serve::AdvisorClient client(host, port, seed);
  Result<serve::AdvisorResponse> response =
      no_retry ? client.Call(line) : client.CallWithRetry(line);
  if (!response.ok()) {
    std::fprintf(stderr, "request failed: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  // Responses are single lines already; echo verbatim for scripts.
  std::printf("%s\n", response->raw.c_str());
  return response->ok() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
