// In-process tests of the advisor serving layer: wire-protocol parsing,
// the request lifecycle end to end against a real AdvisorServer on an
// ephemeral port, deterministic overload shedding via the pause/resume
// gate, deadline expiry, the serving fault sites, and the client's
// reconnect/backoff behavior.
//
// This binary is registered at several FAIRCLEAN_THREADS widths (see
// tests/CMakeLists.txt): the server sizes its worker pool from that knob,
// and the overload arithmetic must hold at every width — that is the whole
// point of gating admission on the queue bound rather than on worker
// count.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "obs/flight.h"
#include "obs/json_lite.h"
#include "obs/metrics.h"
#include "serve/advisor_service.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace fairclean {
namespace serve {
namespace {

constexpr char kAnalyzePrefix[] =
    "{\"op\":\"analyze\",\"dataset\":\"german\","
    "\"error_type\":\"missing_values\",\"model\":\"log-reg\"";

std::string AnalyzeLine(const std::string& id, double deadline_s = 0.0) {
  std::string line = std::string(kAnalyzePrefix) + ",\"id\":\"" + id + "\"";
  if (deadline_s > 0.0) {
    line += ",\"deadline_s\":" + std::to_string(deadline_s);
  }
  return line + "}";
}

std::string FreshDir(const std::string& name) {
  // Per-process paths: the width registrations of this binary run
  // concurrently under ctest -j and must not share cache directories.
  std::string dir = testing::TempDir() + "/serve_test_" +
                    std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// A deliberately ill-behaved client: pipelines many request lines without
// waiting for responses, which AdvisorClient (one round trip per Call)
// cannot do. This is how the overload tests fill the admission queue
// atomically from the server's point of view — one reader thread drains
// the pipelined lines back to back.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  bool Send(std::string line) {
    if (line.empty() || line.back() != '\n') line += '\n';
    size_t sent = 0;
    while (sent < line.size()) {
      ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocking; "" on EOF.
  std::string ReadLine() {
    while (true) {
      size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        std::string line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return line;
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

class ServeTest : public testing::Test {
 protected:
  void StartServer(const std::string& tag, size_t queue_limit) {
    ServeOptions options;
    options.port = 0;  // ephemeral
    options.queue_limit = queue_limit;
    options.retry_after_ms = 25;
    // Golden-suite scale (see suite_golden_test): smaller samples can hit
    // degenerate repeats (a fold with a single-class group) on german.
    options.suite.study.sample_size = 300;
    options.suite.study.num_repeats = 2;
    options.suite.study.cv_folds = 2;
    options.suite.cache_dir = FreshDir(tag);
    server_ = std::make_unique<AdvisorServer>(options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
    FaultInjector::Global().Reset();
  }

  std::unique_ptr<AdvisorServer> server_;
};

TEST(ServeProtocolTest, ParsesAnalyzeRequest) {
  Result<AdvisorRequest> request = ParseRequest(
      "{\"op\":\"analyze\",\"id\":\"r1\",\"dataset\":\"german\","
      "\"error_type\":\"missing_values\",\"model\":\"log-reg\","
      "\"group\":\"sex\",\"metric\":\"PP\",\"deadline_s\":5}");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->op, AdvisorRequest::Op::kAnalyze);
  EXPECT_EQ(request->id, "r1");
  EXPECT_EQ(request->dataset, "german");
  EXPECT_EQ(request->error_type, "missing_values");
  EXPECT_EQ(request->model, "log-reg");
  EXPECT_EQ(request->group, "sex");
  EXPECT_EQ(request->metric, "PP");
  EXPECT_DOUBLE_EQ(request->deadline_s, 5.0);
}

TEST(ServeProtocolTest, ParsesControlOps) {
  for (const char* op : {"ping", "stats", "pause", "resume", "shutdown"}) {
    Result<AdvisorRequest> request = ParseRequest(
        std::string("{\"op\":\"") + op + "\",\"id\":\"c\"}");
    ASSERT_TRUE(request.ok()) << op;
    EXPECT_NE(request->op, AdvisorRequest::Op::kAnalyze) << op;
  }
}

TEST(ServeProtocolTest, RejectsBadRequests) {
  // Validation happens at parse time, before a worker is consumed.
  EXPECT_FALSE(ParseRequest("not json").ok());
  EXPECT_FALSE(ParseRequest("[1,2]").ok());
  EXPECT_FALSE(ParseRequest("{\"op\":\"levitate\"}").ok());
  // Unknown dataset / error type / model / metric.
  EXPECT_FALSE(ParseRequest(
                   "{\"op\":\"analyze\",\"dataset\":\"nope\","
                   "\"error_type\":\"missing_values\",\"model\":\"log-reg\"}")
                   .ok());
  EXPECT_FALSE(ParseRequest(
                   "{\"op\":\"analyze\",\"dataset\":\"german\","
                   "\"error_type\":\"typos\",\"model\":\"log-reg\"}")
                   .ok());
  EXPECT_FALSE(ParseRequest(
                   "{\"op\":\"analyze\",\"dataset\":\"german\","
                   "\"error_type\":\"missing_values\",\"model\":\"gpt\"}")
                   .ok());
  EXPECT_FALSE(ParseRequest(AnalyzeLine("r").substr(0, 20)).ok());
  Result<AdvisorRequest> bad_metric = ParseRequest(
      "{\"op\":\"analyze\",\"dataset\":\"german\","
      "\"error_type\":\"missing_values\",\"model\":\"log-reg\","
      "\"metric\":\"vibes\"}");
  EXPECT_FALSE(bad_metric.ok());
  Result<AdvisorRequest> bad_deadline = ParseRequest(
      "{\"op\":\"analyze\",\"dataset\":\"german\","
      "\"error_type\":\"missing_values\",\"model\":\"log-reg\","
      "\"deadline_s\":-1}");
  ASSERT_FALSE(bad_deadline.ok());
  EXPECT_EQ(bad_deadline.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeProtocolTest, StatusTokensAreLowerSnake) {
  EXPECT_STREQ(StatusCodeToken(StatusCode::kOk), "ok");
  EXPECT_STREQ(StatusCodeToken(StatusCode::kUnavailable), "unavailable");
  EXPECT_STREQ(StatusCodeToken(StatusCode::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(StatusCodeToken(StatusCode::kInvalidArgument),
               "invalid_argument");
  EXPECT_STREQ(StatusCodeToken(StatusCode::kIoError), "io_error");
}

TEST(ServeProtocolTest, ParseResponseReadsErrorShape) {
  // Also covers JsonValue::BoolOr, which the client uses for "resumable".
  Result<AdvisorResponse> response = ParseResponse(
      "{\"id\":\"r9\",\"status\":\"deadline_exceeded\",\"error\":\"expired\","
      "\"retry_after_ms\":40,\"resumable\":true}");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->id, "r9");
  EXPECT_EQ(response->status, "deadline_exceeded");
  EXPECT_EQ(response->error, "expired");
  EXPECT_EQ(response->retry_after_ms, 40);
  EXPECT_TRUE(response->resumable);
  EXPECT_FALSE(response->ok());
  EXPECT_TRUE(response->Retryable());

  Result<AdvisorResponse> shed = ParseResponse(
      "{\"id\":\"\",\"status\":\"unavailable\",\"error\":\"full\","
      "\"retry_after_ms\":200}");
  ASSERT_TRUE(shed.ok());
  EXPECT_FALSE(shed->resumable);  // absent -> BoolOr default
  EXPECT_TRUE(shed->Retryable());

  // "resumable" with a non-bool value falls back too.
  obs::JsonValue value;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::Parse("{\"resumable\":\"yes\"}", &value,
                                    &error));
  EXPECT_FALSE(value.BoolOr("resumable", false));
  EXPECT_TRUE(value.BoolOr("missing", true));

  EXPECT_FALSE(ParseResponse("garbage").ok());
  EXPECT_FALSE(ParseResponse("{\"id\":\"x\"}").ok());  // no status
}

TEST(ServeProtocolTest, ParseResponseSanitizesHostileRetryHints) {
  // The hint crosses the wire as an untrusted double; every malformed
  // shape must land in [0, kMaxRetryAfterMs] instead of hitting the
  // undefined double->int conversion the old bare cast performed.
  auto hint_of = [](const std::string& raw) {
    Result<AdvisorResponse> response = ParseResponse(
        "{\"id\":\"h\",\"status\":\"unavailable\",\"retry_after_ms\":" +
        raw + "}");
    EXPECT_TRUE(response.ok()) << raw;
    return response.ok() ? response->retry_after_ms : -1;
  };
  EXPECT_EQ(hint_of("250"), 250);
  EXPECT_EQ(hint_of("0"), 0);
  EXPECT_EQ(hint_of("-1"), 0);
  EXPECT_EQ(hint_of("-1e300"), 0);
  EXPECT_EQ(hint_of("1e300"), kMaxRetryAfterMs);  // beyond-int magnitude
  EXPECT_EQ(hint_of("99999999999"), kMaxRetryAfterMs);
  EXPECT_EQ(hint_of(std::to_string(kMaxRetryAfterMs + 1)), kMaxRetryAfterMs);
  EXPECT_EQ(hint_of("\"soon\""), 0);  // non-number -> NumberOr default

  // A non-finite hint parsed from a malformed-but-accepted payload also
  // reads as 0 (JSON has no NaN literal; NumberOr's default covers it).
  Result<AdvisorResponse> missing = ParseResponse(
      "{\"id\":\"h\",\"status\":\"unavailable\"}");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->retry_after_ms, 0);
}

TEST(ServeProtocolTest, BackoffDelaySaturatesAtHighAttempts) {
  BackoffOptions backoff;
  backoff.base_ms = 50;
  backoff.max_ms = 2000;
  // The doubling ramp, then the cap.
  EXPECT_EQ(BackoffDelayMs(backoff, 1, 0), 50);
  EXPECT_EQ(BackoffDelayMs(backoff, 2, 0), 100);
  EXPECT_EQ(BackoffDelayMs(backoff, 3, 0), 200);
  EXPECT_EQ(BackoffDelayMs(backoff, 6, 0), 1600);
  EXPECT_EQ(BackoffDelayMs(backoff, 7, 0), 2000);
  // Attempts far past where `base_ms << (attempt - 1)` was undefined
  // behavior: the delay pins at max_ms, never wraps negative.
  for (int attempt : {31, 32, 63, 64, 100, 1000, INT_MAX}) {
    EXPECT_EQ(BackoffDelayMs(backoff, attempt, 0), 2000) << attempt;
  }
}

TEST(ServeProtocolTest, BackoffDelayHonorsServerHintWithinCap) {
  BackoffOptions backoff;
  backoff.base_ms = 50;
  backoff.max_ms = 2000;
  // A larger server hint replaces the computed delay...
  EXPECT_EQ(BackoffDelayMs(backoff, 1, 300), 300);
  // ...a smaller one does not...
  EXPECT_EQ(BackoffDelayMs(backoff, 4, 100), 400);
  // ...and the cap binds the hint too (the hint is already sanitized to
  // kMaxRetryAfterMs upstream, but the cap must hold regardless).
  EXPECT_EQ(BackoffDelayMs(backoff, 1, 1000000), 2000);
  EXPECT_EQ(BackoffDelayMs(backoff, 1000, 1000000), 2000);

  // Degenerate configurations stay non-negative.
  BackoffOptions zero;
  zero.base_ms = 0;
  zero.max_ms = 0;
  EXPECT_EQ(BackoffDelayMs(zero, 100, 0), 0);
  BackoffOptions negative;
  negative.base_ms = -5;
  negative.max_ms = -1;
  EXPECT_EQ(BackoffDelayMs(negative, 100, 50), 0);
}

TEST(ServeOptionsTest, EnvParsingIsStrict) {
  setenv("FAIRCLEAN_SERVE_QUEUE", "12abc", 1);
  Result<ServeOptions> garbage = ServeOptionsFromEnv();
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(garbage.status().message().find("FAIRCLEAN_SERVE_QUEUE"),
            std::string::npos);

  setenv("FAIRCLEAN_SERVE_QUEUE", "0", 1);
  EXPECT_FALSE(ServeOptionsFromEnv().ok());  // a queue needs room for 1
  unsetenv("FAIRCLEAN_SERVE_QUEUE");

  setenv("FAIRCLEAN_SERVE_PORT", "70000", 1);
  EXPECT_FALSE(ServeOptionsFromEnv().ok());
  unsetenv("FAIRCLEAN_SERVE_PORT");

  setenv("FAIRCLEAN_SERVE_DEADLINE_S", "1.5x", 1);
  EXPECT_FALSE(ServeOptionsFromEnv().ok());
  unsetenv("FAIRCLEAN_SERVE_DEADLINE_S");

  setenv("FAIRCLEAN_SERVE_PORT", "0", 1);
  setenv("FAIRCLEAN_SERVE_QUEUE", "5", 1);
  setenv("FAIRCLEAN_SERVE_DEADLINE_S", "2.5", 1);
  Result<ServeOptions> parsed = ServeOptionsFromEnv();
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->port, 0);
  EXPECT_EQ(parsed->queue_limit, 5u);
  EXPECT_DOUBLE_EQ(parsed->default_deadline_s, 2.5);
  unsetenv("FAIRCLEAN_SERVE_PORT");
  unsetenv("FAIRCLEAN_SERVE_QUEUE");
  unsetenv("FAIRCLEAN_SERVE_DEADLINE_S");
}

uint64_t DatasetsGenerated() {
  return obs::MetricsRegistry::Global()
      .GetCounter("sched.datasets_generated")
      ->value();
}

TEST(AdvisorServiceTest, FreshServiceAnswersACachedCellWithoutGeneratingData) {
  sched::SuiteOptions options;
  options.study.sample_size = 300;
  options.study.num_repeats = 2;
  options.study.cv_folds = 2;
  options.cache_dir = FreshDir("lazy_service");
  AdvisorRequest request;
  request.dataset = "german";
  request.error_type = "missing_values";
  request.model = "log-reg";

  const uint64_t before = DatasetsGenerated();
  std::string sha;
  {
    AdvisorService cold(options);
    Result<AdvisorAnalysis> analysis = cold.Analyze(request, std::nullopt);
    ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
    EXPECT_FALSE(analysis->cache_hit);
    sha = analysis->sha256;
  }
  EXPECT_EQ(DatasetsGenerated() - before, 1u);

  // A restarted server: nothing resident, the cell record on disk.
  AdvisorService warm(options);
  Result<AdvisorAnalysis> analysis = warm.Analyze(request, std::nullopt);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_TRUE(analysis->cache_hit);
  EXPECT_EQ(analysis->sha256, sha);
  EXPECT_EQ(DatasetsGenerated() - before, 1u);
}

TEST(ServeOptionsTest, RetryHintKnobParsesStrictly) {
  setenv("FAIRCLEAN_SERVE_RETRY_MS", "250ms", 1);
  Result<ServeOptions> garbage = ServeOptionsFromEnv();
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(garbage.status().message().find("FAIRCLEAN_SERVE_RETRY_MS"),
            std::string::npos);

  setenv("FAIRCLEAN_SERVE_RETRY_MS", "-5", 1);
  EXPECT_FALSE(ServeOptionsFromEnv().ok());

  setenv("FAIRCLEAN_SERVE_RETRY_MS", "750", 1);
  Result<ServeOptions> parsed = ServeOptionsFromEnv();
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->retry_after_ms, 750);
  unsetenv("FAIRCLEAN_SERVE_RETRY_MS");
  Result<ServeOptions> unset = ServeOptionsFromEnv();
  ASSERT_TRUE(unset.ok());
  EXPECT_EQ(unset->retry_after_ms, ServeOptions().retry_after_ms);
}

TEST(ServeOptionsTest, MaxConnsKnobParsesStrictly) {
  for (const char* bad : {"0", "5x", "many"}) {
    setenv("FAIRCLEAN_SERVE_MAX_CONNS", bad, 1);
    Result<ServeOptions> rejected = ServeOptionsFromEnv();
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(rejected.status().message().find("FAIRCLEAN_SERVE_MAX_CONNS"),
              std::string::npos)
        << bad;
  }

  setenv("FAIRCLEAN_SERVE_MAX_CONNS", "5", 1);
  Result<ServeOptions> parsed = ServeOptionsFromEnv();
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->max_connections, 5u);
  unsetenv("FAIRCLEAN_SERVE_MAX_CONNS");
  Result<ServeOptions> unset = ServeOptionsFromEnv();
  ASSERT_TRUE(unset.ok());
  EXPECT_EQ(unset->max_connections, ServeOptions().max_connections);
}

TEST_F(ServeTest, PingAnalyzeAndStatsRoundTrip) {
  StartServer("roundtrip", 8);
  AdvisorClient client("127.0.0.1", server_->port());

  Result<AdvisorResponse> pong = client.Call("{\"op\":\"ping\",\"id\":\"p\"}");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong->ok());
  EXPECT_EQ(pong->id, "p");

  Result<AdvisorResponse> first = client.Call(AnalyzeLine("a1"));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->ok()) << first->raw;
  EXPECT_EQ(first->json.StringOr("cell", ""),
            "german/missing_values/log-reg");
  EXPECT_FALSE(first->json.BoolOr("cache_hit", true));
  std::string sha = first->json.StringOr("sha256", "");
  EXPECT_EQ(sha.size(), 64u);

  // Same cell again: served from the resident artifact store, same bytes.
  Result<AdvisorResponse> second = client.Call(AnalyzeLine("a2"));
  ASSERT_TRUE(second.ok() && second->ok());
  EXPECT_TRUE(second->json.BoolOr("cache_hit", false));
  EXPECT_EQ(second->json.StringOr("sha256", ""), sha);

  Result<AdvisorResponse> stats =
      client.Call("{\"op\":\"stats\",\"id\":\"s\"}");
  ASSERT_TRUE(stats.ok() && stats->ok());
  EXPECT_DOUBLE_EQ(stats->json.NumberOr("accepted", -1), 2.0);
  EXPECT_DOUBLE_EQ(stats->json.NumberOr("ok", -1), 2.0);
  EXPECT_DOUBLE_EQ(stats->json.NumberOr("shed", -1), 0.0);
  EXPECT_FALSE(stats->json.BoolOr("paused", true));
}

TEST_F(ServeTest, OverloadShedsExactlyTheExcess) {
  // The deterministic overload contract: with the worker dequeue paused, a
  // queue bound of Q and Q+k pipelined submissions yield exactly k sheds,
  // no matter how many workers the width registration gave the server.
  constexpr size_t kQueue = 3;
  constexpr size_t kExcess = 2;
  StartServer("overload", kQueue);

  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Send("{\"op\":\"pause\",\"id\":\"p\"}"));
  Result<AdvisorResponse> ack = ParseResponse(conn.ReadLine());
  ASSERT_TRUE(ack.ok() && ack->ok());

  for (size_t i = 0; i < kQueue + kExcess; ++i) {
    ASSERT_TRUE(conn.Send(AnalyzeLine("r" + std::to_string(i))));
  }

  // While paused nothing executes, so the only responses on the wire are
  // the k sheds — written inline by the reader, in submission order, for
  // exactly the requests beyond the bound.
  for (size_t i = 0; i < kExcess; ++i) {
    Result<AdvisorResponse> shed = ParseResponse(conn.ReadLine());
    ASSERT_TRUE(shed.ok()) << shed.status().ToString();
    EXPECT_EQ(shed->status, "unavailable") << shed->raw;
    EXPECT_EQ(shed->id, "r" + std::to_string(kQueue + i));
    EXPECT_EQ(shed->retry_after_ms, 25);
    EXPECT_TRUE(shed->Retryable());
    EXPECT_NE(shed->error.find("admission queue full"), std::string::npos);
  }
  ServerStats mid = server_->Stats();
  EXPECT_EQ(mid.accepted, kQueue);
  EXPECT_EQ(mid.shed, kExcess);
  EXPECT_EQ(mid.queue_depth, kQueue);
  EXPECT_TRUE(mid.paused);

  // Resume: every admitted request completes (same cell -> one production,
  // shared by the rest). Worker completion order is nondeterministic, so
  // collect ids as a set.
  ASSERT_TRUE(conn.Send("{\"op\":\"resume\",\"id\":\"g\"}"));
  std::set<std::string> completed;
  bool resumed = false;
  for (size_t i = 0; i < kQueue + 1; ++i) {
    Result<AdvisorResponse> response = ParseResponse(conn.ReadLine());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->ok()) << response->raw;
    if (response->json.StringOr("op", "") == "resume") {
      resumed = true;
    } else {
      completed.insert(response->id);
    }
  }
  EXPECT_TRUE(resumed);
  EXPECT_EQ(completed,
            (std::set<std::string>{"r0", "r1", "r2"}));
  ServerStats done = server_->Stats();
  EXPECT_EQ(done.ok, kQueue);
  EXPECT_EQ(done.shed, kExcess);
  EXPECT_EQ(done.queue_depth, 0u);
}

TEST_F(ServeTest, QueueExpiredDeadlineAnswersWithoutComputingAndIsResumable) {
  StartServer("deadline", 4);
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Send("{\"op\":\"pause\",\"id\":\"p\"}"));
  ASSERT_TRUE(ParseResponse(conn.ReadLine()).ok());

  // 50 ms deadline, then hold the queue well past it.
  ASSERT_TRUE(conn.Send(AnalyzeLine("d1", 0.05)));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // The resume ack (reader thread) and the expired answer (worker thread)
  // race onto the wire; classify the two lines instead of assuming order.
  ASSERT_TRUE(conn.Send("{\"op\":\"resume\",\"id\":\"g\"}"));
  Result<AdvisorResponse> expired(Status::Internal("no expired response"));
  for (int i = 0; i < 2; ++i) {
    Result<AdvisorResponse> response = ParseResponse(conn.ReadLine());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response->json.StringOr("op", "") != "resume") expired = response;
  }
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  EXPECT_EQ(expired->status, "deadline_exceeded") << expired->raw;
  EXPECT_EQ(expired->id, "d1");
  EXPECT_TRUE(expired->resumable);
  EXPECT_GT(expired->retry_after_ms, 0);
  EXPECT_NE(expired->error.find("deadline expired in admission queue"),
            std::string::npos);
  EXPECT_EQ(server_->Stats().deadline_exceeded, 1u);

  // The client's retry (no deadline this time) gets the full answer.
  ASSERT_TRUE(conn.Send(AnalyzeLine("d2")));
  Result<AdvisorResponse> retried = ParseResponse(conn.ReadLine());
  ASSERT_TRUE(retried.ok());
  EXPECT_TRUE(retried->ok()) << retried->raw;
}

TEST_F(ServeTest, RequestParseFaultAnswersIoErrorAndRecovers) {
  StartServer("parsefault", 4);
  ASSERT_TRUE(
      FaultInjector::Global().Configure("request_parse:1:1", 7).ok());
  AdvisorClient client("127.0.0.1", server_->port());
  Result<AdvisorResponse> faulted =
      client.Call("{\"op\":\"ping\",\"id\":\"p\"}");
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_EQ(faulted->status, "io_error") << faulted->raw;
  EXPECT_TRUE(faulted->Retryable());
  // max_fires exhausted: the same line now parses and serves.
  Result<AdvisorResponse> pong = client.Call("{\"op\":\"ping\",\"id\":\"p\"}");
  ASSERT_TRUE(pong.ok() && pong->ok());
}

TEST_F(ServeTest, SocketFaultsDropTheConnectionAndTheClientReconnects) {
  StartServer("socketfault", 4);
  {
    // socket_read: the server's reader kills the connection; Call
    // reconnects once and the retry lands after the fault is exhausted.
    ASSERT_TRUE(FaultInjector::Global().Configure("socket_read:1:1", 7).ok());
    AdvisorClient client("127.0.0.1", server_->port());
    Result<AdvisorResponse> pong =
        client.Call("{\"op\":\"ping\",\"id\":\"p\"}");
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_TRUE(pong->ok());
  }
  FaultInjector::Global().Reset();
  {
    // socket_write: the response is dropped mid-wire instead.
    ASSERT_TRUE(
        FaultInjector::Global().Configure("socket_write:1:1", 7).ok());
    AdvisorClient client("127.0.0.1", server_->port());
    Result<AdvisorResponse> pong =
        client.Call("{\"op\":\"ping\",\"id\":\"p\"}");
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_TRUE(pong->ok());
  }
}

TEST_F(ServeTest, CallWithRetryHonorsShedHintsUntilAdmitted) {
  // Queue of 1, paused, already holding one request: a well-behaved client
  // is shed with a retry_after_ms hint and keeps backing off until the
  // gate opens, then gets a real answer.
  StartServer("backoff", 1);
  RawConn filler(server_->port());
  ASSERT_TRUE(filler.connected());
  ASSERT_TRUE(filler.Send("{\"op\":\"pause\",\"id\":\"p\"}"));
  ASSERT_TRUE(ParseResponse(filler.ReadLine()).ok());
  ASSERT_TRUE(filler.Send(AnalyzeLine("hog")));
  // The hog must hold the queue slot before the client's first attempt.
  while (server_->Stats().queue_depth < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::thread resumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    RawConn control(server_->port());
    ASSERT_TRUE(control.connected());
    ASSERT_TRUE(control.Send("{\"op\":\"resume\",\"id\":\"g\"}"));
    control.ReadLine();
  });

  AdvisorClient client("127.0.0.1", server_->port(), /*seed=*/7);
  BackoffOptions backoff;
  backoff.base_ms = 20;
  backoff.max_attempts = 20;
  Result<AdvisorResponse> response =
      client.CallWithRetry(AnalyzeLine("c1"), backoff);
  resumer.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ok()) << response->raw;
  EXPECT_GE(client.retries(), 1u);

  Result<AdvisorResponse> hog = ParseResponse(filler.ReadLine());
  ASSERT_TRUE(hog.ok());
  EXPECT_TRUE(hog->ok());
}

TEST_F(ServeTest, ShutdownShedsQueuedRequestsHonestly) {
  StartServer("shutdown", 4);
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Send("{\"op\":\"pause\",\"id\":\"p\"}"));
  ASSERT_TRUE(ParseResponse(conn.ReadLine()).ok());
  ASSERT_TRUE(conn.Send(AnalyzeLine("q1")));
  ASSERT_TRUE(conn.Send(AnalyzeLine("q2")));
  while (server_->Stats().queue_depth < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  server_->Shutdown();
  // Both queued requests were answered before their connection closed:
  // Unavailable, "shutting down" — not silently dropped.
  std::set<std::string> answered;
  for (int i = 0; i < 2; ++i) {
    Result<AdvisorResponse> response = ParseResponse(conn.ReadLine());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, "unavailable");
    EXPECT_NE(response->error.find("shutting down"), std::string::npos);
    answered.insert(response->id);
  }
  EXPECT_EQ(answered, (std::set<std::string>{"q1", "q2"}));
  EXPECT_EQ(conn.ReadLine(), "");  // then EOF
  EXPECT_EQ(server_->Stats().shed, 2u);
}

TEST(ServeProtocolTest, ParsesTelemetryOps) {
  Result<AdvisorRequest> metrics = ParseRequest(
      "{\"op\":\"metrics\",\"id\":\"m\",\"format\":\"prometheus\"}");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->op, AdvisorRequest::Op::kMetrics);
  EXPECT_EQ(metrics->format, "prometheus");
  // Format defaults to json and anything else is rejected at parse time,
  // before a scrape is rendered.
  Result<AdvisorRequest> defaulted =
      ParseRequest("{\"op\":\"metrics\",\"id\":\"m\"}");
  ASSERT_TRUE(defaulted.ok());
  EXPECT_EQ(defaulted->format, "json");
  Result<AdvisorRequest> bad_format =
      ParseRequest("{\"op\":\"metrics\",\"id\":\"m\",\"format\":\"xml\"}");
  ASSERT_FALSE(bad_format.ok());
  EXPECT_EQ(bad_format.status().code(), StatusCode::kInvalidArgument);

  Result<AdvisorRequest> trace = ParseRequest(
      "{\"op\":\"trace\",\"id\":\"t\",\"trace_id\":\"00deadbeef000001\"}");
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->op, AdvisorRequest::Op::kTrace);
  EXPECT_EQ(trace->trace_id, "00deadbeef000001");

  Result<AdvisorRequest> flight = ParseRequest(
      "{\"op\":\"flight\",\"id\":\"f\",\"path\":\"/tmp/x.flight\"}");
  ASSERT_TRUE(flight.ok());
  EXPECT_EQ(flight->op, AdvisorRequest::Op::kFlight);
  EXPECT_EQ(flight->path, "/tmp/x.flight");
}

TEST_F(ServeTest, MetricsOpScrapesJsonAndPrometheus) {
  StartServer("metrics", 8);
  AdvisorClient client("127.0.0.1", server_->port());
  ASSERT_TRUE(client.Call(AnalyzeLine("warm"))->ok());

  // JSON scrape: an array of typed entries; the serve windows must be
  // present, windowed, and already holding this request.
  Result<AdvisorResponse> json =
      client.Call("{\"op\":\"metrics\",\"id\":\"m1\",\"format\":\"json\"}");
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  ASSERT_TRUE(json->ok()) << json->raw;
  EXPECT_EQ(json->json.StringOr("format", ""), "json");
  const obs::JsonValue* metrics = json->json.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_array());
  bool saw_latency_window = false, saw_requests_counter = false;
  for (const obs::JsonValue& entry : metrics->array_items) {
    ASSERT_TRUE(entry.is_object());
    EXPECT_NE(entry.Find("metric"), nullptr);
    EXPECT_NE(entry.Find("type"), nullptr);
    const std::string name = entry.StringOr("metric", "");
    if (name == "serve.window.request_latency_s") {
      saw_latency_window = true;
      EXPECT_EQ(entry.StringOr("type", ""), "histogram");
      EXPECT_GT(entry.NumberOr("window_s", 0.0), 0.0);
      EXPECT_GE(entry.NumberOr("count", 0.0), 1.0);
    } else if (name == "serve.requests_accepted") {
      saw_requests_counter = true;
      EXPECT_EQ(entry.StringOr("type", ""), "counter");
      EXPECT_GE(entry.NumberOr("value", 0.0), 1.0);
    }
  }
  EXPECT_TRUE(saw_latency_window);
  EXPECT_TRUE(saw_requests_counter);

  // Prometheus scrape: the exposition text rides in one escaped string,
  // windows rendered as quantile summaries.
  Result<AdvisorResponse> prom = client.Call(
      "{\"op\":\"metrics\",\"id\":\"m2\",\"format\":\"prometheus\"}");
  ASSERT_TRUE(prom.ok() && prom->ok()) << prom->raw;
  EXPECT_EQ(prom->json.StringOr("format", ""), "prometheus");
  const std::string exposition = prom->json.StringOr("exposition", "");
  EXPECT_NE(exposition.find(
                "# TYPE serve_window_request_latency_s summary"),
            std::string::npos)
      << exposition.substr(0, 400);
  EXPECT_NE(exposition.find("quantile=\"0.99\""), std::string::npos);

  // The scrape is served inline by the reader thread: it must answer even
  // when every worker is wedged behind the pause gate.
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Send("{\"op\":\"pause\",\"id\":\"p\"}"));
  ASSERT_TRUE(ParseResponse(conn.ReadLine()).ok());
  ASSERT_TRUE(conn.Send("{\"op\":\"metrics\",\"id\":\"m3\"}"));
  Result<AdvisorResponse> paused = ParseResponse(conn.ReadLine());
  ASSERT_TRUE(paused.ok() && paused->ok());
  ASSERT_TRUE(conn.Send("{\"op\":\"resume\",\"id\":\"r\"}"));
  ASSERT_TRUE(ParseResponse(conn.ReadLine()).ok());
}

TEST_F(ServeTest, TraceOpReturnsTheSpanTreeOfACompletedRequest) {
  StartServer("traceop", 8);
  AdvisorClient client("127.0.0.1", server_->port());
  Result<AdvisorResponse> analyzed = client.Call(AnalyzeLine("t1"));
  ASSERT_TRUE(analyzed.ok() && analyzed->ok()) << analyzed->raw;
  const std::string trace_id = analyzed->json.StringOr("trace", "");
  ASSERT_EQ(trace_id.size(), 16u) << analyzed->raw;

  // Listing retains the id the analyze response advertised.
  Result<AdvisorResponse> listed =
      client.Call("{\"op\":\"trace\",\"id\":\"l\"}");
  ASSERT_TRUE(listed.ok() && listed->ok()) << listed->raw;
  const obs::JsonValue* traces = listed->json.Find("traces");
  ASSERT_NE(traces, nullptr);
  bool retained = false;
  for (const obs::JsonValue& entry : traces->array_items) {
    if (entry.string_value == trace_id) retained = true;
  }
  EXPECT_TRUE(retained);

  // The span tree for that id covers the request across layers: a serve
  // root span plus nested work, every span shaped for the tree renderer.
  Result<AdvisorResponse> fetched = client.Call(
      "{\"op\":\"trace\",\"id\":\"t\",\"trace_id\":\"" + trace_id + "\"}");
  ASSERT_TRUE(fetched.ok() && fetched->ok()) << fetched->raw;
  EXPECT_EQ(fetched->json.StringOr("trace", ""), trace_id);
  const obs::JsonValue* spans = fetched->json.Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_FALSE(spans->array_items.empty());
  bool saw_root = false;
  for (const obs::JsonValue& span : spans->array_items) {
    EXPECT_NE(span.Find("name"), nullptr);
    EXPECT_NE(span.Find("cat"), nullptr);
    EXPECT_GE(span.NumberOr("dur_us", -1.0), 0.0);
    if (span.NumberOr("depth", -1.0) == 0.0) saw_root = true;
  }
  EXPECT_TRUE(saw_root);

  // Unknown and malformed ids both answer not_found without a worker.
  Result<AdvisorResponse> unknown = client.Call(
      "{\"op\":\"trace\",\"id\":\"u\",\"trace_id\":\"ffffffffffffffff\"}");
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(unknown->ok());
  EXPECT_NE(unknown->error.find("not retained"), std::string::npos);
  Result<AdvisorResponse> malformed = client.Call(
      "{\"op\":\"trace\",\"id\":\"b\",\"trace_id\":\"zz\"}");
  ASSERT_TRUE(malformed.ok());
  EXPECT_FALSE(malformed->ok());
}

TEST_F(ServeTest, FlightOpWritesADecodableDump) {
  StartServer("flightop", 8);
  obs::FlightRecorder::Enable(/*capacity=*/4096);
  AdvisorClient client("127.0.0.1", server_->port());
  ASSERT_TRUE(client.Call(AnalyzeLine("f1"))->ok());

  const std::string path = FreshDir("flight") + "/op.flight";
  Result<AdvisorResponse> dumped = client.Call(
      "{\"op\":\"flight\",\"id\":\"f\",\"path\":\"" + path + "\"}");
  ASSERT_TRUE(dumped.ok() && dumped->ok()) << dumped->raw;
  EXPECT_EQ(dumped->json.StringOr("flight", ""), path);

  obs::FlightDump dump;
  std::string error;
  ASSERT_TRUE(obs::DecodeFlightFile(path, &dump, &error)) << error;
  EXPECT_EQ(dump.reason, obs::kFlightReasonExplicit);
  EXPECT_GT(dump.TotalEvents(), 0u);
  // The request left span begin/end pairs behind in some worker's ring.
  size_t span_events = 0;
  for (const obs::FlightDump::Thread& thread : dump.threads) {
    for (const obs::FlightEntry& entry : thread.events) {
      if (entry.type ==
              static_cast<uint8_t>(obs::FlightEventType::kSpanBegin) ||
          entry.type ==
              static_cast<uint8_t>(obs::FlightEventType::kSpanEnd)) {
        ++span_events;
      }
    }
  }
  EXPECT_GT(span_events, 0u);
  obs::FlightRecorder::Disable();
}

}  // namespace
}  // namespace serve
}  // namespace fairclean
