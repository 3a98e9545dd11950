#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <utility>

#include "common/env.h"
#include "common/fault_injection.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "obs/flight.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace fairclean {
namespace serve {

namespace {

// How long the worker_stall fault site wedges a worker.
constexpr std::chrono::milliseconds kWorkerStall(100);

// One registry fetch per instrument; pointers are stable for the process.
obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("serve.queue_depth");
  return gauge;
}

obs::Histogram* LatencyHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "serve.request_latency_s",
          obs::MetricsRegistry::DefaultLatencyBounds());
  return histogram;
}

obs::Counter* LifecycleCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

// Sliding-window twins of the lifetime instruments, so a scrape reflects
// the last FAIRCLEAN_METRICS_WINDOW_S seconds instead of the whole
// process (DESIGN.md §14). Counting instruments observe 1.0 per event:
// count / window_s is the rate.
obs::SlidingWindowHistogram* WindowLatency() {
  static obs::SlidingWindowHistogram* window =
      obs::MetricsRegistry::Global().GetWindowHistogram(
          "serve.window.request_latency_s",
          obs::MetricsRegistry::DefaultLatencyBounds());
  return window;
}

obs::SlidingWindowHistogram* WindowRequests() {
  static obs::SlidingWindowHistogram* window =
      obs::MetricsRegistry::Global().GetWindowHistogram(
          "serve.window.requests", {1.0});
  return window;
}

obs::SlidingWindowHistogram* WindowSheds() {
  static obs::SlidingWindowHistogram* window =
      obs::MetricsRegistry::Global().GetWindowHistogram(
          "serve.window.sheds", {1.0});
  return window;
}

void RecordShed() {
  LifecycleCounter("serve.requests_shed")->Increment();
  WindowSheds()->Observe(1.0);
  if (obs::FlightEnabled()) {
    static const uint16_t site =
        obs::FlightRecorder::Site(std::string("serve.shed"));
    obs::FlightRecorder::Record(obs::FlightEventType::kShed, site);
  }
}

// Writes every byte or fails; MSG_NOSIGNAL turns a dead peer into EPIPE
// instead of SIGPIPE.
Status SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(StrFormat("send failed: %s", strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Result<ServeOptions> ServeOptionsFromEnv() {
  ServeOptions options;
  FC_ASSIGN_OR_RETURN(int64_t port, GetEnvCount("FAIRCLEAN_SERVE_PORT", 7433));
  if (port > 65535) {
    return Status::InvalidArgument(
        StrFormat("FAIRCLEAN_SERVE_PORT must be <= 65535, got %lld",
                  static_cast<long long>(port)));
  }
  options.port = static_cast<uint16_t>(port);
  FC_ASSIGN_OR_RETURN(
      int64_t queue,
      GetEnvCount("FAIRCLEAN_SERVE_QUEUE",
                  static_cast<int64_t>(options.queue_limit)));
  if (queue < 1) {
    return Status::InvalidArgument("FAIRCLEAN_SERVE_QUEUE must be >= 1");
  }
  options.queue_limit = static_cast<size_t>(queue);
  FC_ASSIGN_OR_RETURN(options.default_deadline_s,
                      GetEnvBudgetSeconds("FAIRCLEAN_SERVE_DEADLINE_S",
                                          options.default_deadline_s));
  FC_ASSIGN_OR_RETURN(
      int64_t retry_ms,
      GetEnvCount("FAIRCLEAN_SERVE_RETRY_MS",
                  static_cast<int64_t>(options.retry_after_ms)));
  options.retry_after_ms = static_cast<int>(retry_ms);
  FC_ASSIGN_OR_RETURN(
      int64_t max_conns,
      GetEnvCount("FAIRCLEAN_SERVE_MAX_CONNS",
                  static_cast<int64_t>(options.max_connections)));
  if (max_conns < 1) {
    return Status::InvalidArgument("FAIRCLEAN_SERVE_MAX_CONNS must be >= 1");
  }
  options.max_connections = static_cast<size_t>(max_conns);
  FC_ASSIGN_OR_RETURN(options.suite, sched::TrySuiteOptionsFromEnv());
  return options;
}

AdvisorServer::AdvisorServer(ServeOptions options)
    : options_(std::move(options)),
      service_(std::make_unique<AdvisorService>(options_.suite)) {}

AdvisorServer::~AdvisorServer() { Shutdown(); }

Status AdvisorServer::Start() {
  // A peer that vanishes mid-write must surface as an error on that
  // connection, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);

  // Arm the telemetry plane: the flight recorder (via the tracer's env
  // read) and per-trace span retention backing the `trace` op.
  obs::InitTraceFromEnv();
  obs::EnableTraceStore();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(StrFormat("socket failed: %s", strerror(errno)));
  }
  int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = Status::IoError(StrFormat(
        "bind to 127.0.0.1:%u failed: %s",
        static_cast<unsigned>(options_.port), strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    Status status =
        Status::IoError(StrFormat("getsockname failed: %s", strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 128) < 0) {
    Status status =
        Status::IoError(StrFormat("listen failed: %s", strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }

  size_t workers = options_.workers != 0 ? options_.workers
                                         : ThreadPool::DefaultThreadCount();
  worker_threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    worker_threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  FC_LOG_INFO("serve",
              "advisor server listening on 127.0.0.1:%u (queue=%zu "
              "workers=%zu deadline=%.1fs)",
              static_cast<unsigned>(port_), options_.queue_limit, workers,
              options_.default_deadline_s);
  return Status::OK();
}

void AdvisorServer::AcceptLoop() {
  obs::Tracer::SetCurrentThreadName("serve-accept");
  while (!stopping_.load()) {
    sockaddr_in peer;
    socklen_t peer_len = sizeof(peer);
    int fd = ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer),
                      &peer_len);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Shutdown (or a fatal accept error)
    }
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    if (open_connections_.load() >= options_.max_connections) {
      // Connection-level load shedding: answer before the client sends
      // anything, so it backs off instead of timing out.
      ++shed_;
      RecordShed();
      SendAll(fd, RenderError("", Status::Unavailable(StrFormat(
                                      "connection limit %zu reached",
                                      options_.max_connections)),
                              options_.retry_after_ms));
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    ++open_connections_;
    std::lock_guard<std::mutex> lock(conn_mutex_);
    connections_.push_back(conn);
    conn_threads_.emplace_back([this, conn] { ConnectionLoop(conn); });
  }
}

void AdvisorServer::ConnectionLoop(std::shared_ptr<Connection> conn) {
  obs::Tracer::SetCurrentThreadName("serve-conn");
  std::string buffer;
  char chunk[4096];
  // Not gated on stopping_: Shutdown answers the queued requests on this
  // connection before it closes it, so the reader must keep the fd open
  // until that CloseConnection (or the peer) ends the loop.
  while (conn->open.load()) {
    // Deterministic network-failure site: an armed socket_read models the
    // peer (or the network) dying mid-request.
    if (FaultInjector::Global().ShouldFire("socket_read")) {
      CloseConnection(conn);
      break;
    }
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;  // orderly EOF
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t pos;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (StripAsciiWhitespace(line).empty()) continue;
      Status parse_fault = FaultInjector::Global().Inject("request_parse");
      if (!parse_fault.ok()) {
        ++failed_;
        WriteResponse(conn, RenderError("", parse_fault));
        continue;
      }
      Result<AdvisorRequest> request = ParseRequest(line);
      if (!request.ok()) {
        ++failed_;
        LifecycleCounter("serve.requests_rejected")->Increment();
        WriteResponse(conn, RenderError("", request.status()));
        continue;
      }
      Dispatch(*request, conn);
    }
  }
  conn->open.store(false);
  // The reader owns the fd: workers only ever shutdown() it (see
  // CloseConnection), so closing here cannot race a concurrent send.
  std::lock_guard<std::mutex> write_lock(conn->write_mutex);
  ::close(conn->fd);
  conn->fd = -1;
  --open_connections_;
}

void AdvisorServer::Dispatch(const AdvisorRequest& request,
                             const std::shared_ptr<Connection>& conn) {
  switch (request.op) {
    case AdvisorRequest::Op::kPing:
      WriteResponse(conn, RenderPong(request.id));
      return;
    case AdvisorRequest::Op::kStats:
      WriteResponse(conn, RenderStats(request.id, Stats()));
      return;
    case AdvisorRequest::Op::kPause: {
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        paused_ = true;
      }
      WriteResponse(conn, RenderAck(request.id, "pause"));
      return;
    }
    case AdvisorRequest::Op::kResume: {
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        paused_ = false;
      }
      queue_cv_.notify_all();
      WriteResponse(conn, RenderAck(request.id, "resume"));
      return;
    }
    case AdvisorRequest::Op::kShutdown: {
      WriteResponse(conn, RenderAck(request.id, "shutdown"));
      // Wake Wait(); the owner of the server object performs the actual
      // Shutdown (a connection thread cannot join itself).
      std::lock_guard<std::mutex> lock(wait_mutex_);
      shutdown_requested_ = true;
      wait_cv_.notify_all();
      return;
    }
    case AdvisorRequest::Op::kMetrics: {
      // Scrapes answer inline from the reader thread: they must work even
      // when every worker is wedged — that is when you need them.
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      const std::string format =
          request.format.empty() ? "json" : request.format;
      const std::string payload = format == "prometheus"
                                      ? registry.ToPrometheus()
                                      : registry.ToJsonArray();
      WriteResponse(conn, RenderMetrics(request.id, format, payload));
      return;
    }
    case AdvisorRequest::Op::kTrace: {
      if (request.trace_id.empty()) {
        std::vector<std::string> hex_ids;
        for (uint64_t trace_id : obs::TraceStoreIds()) {
          hex_ids.push_back(obs::TraceIdHex(trace_id));
        }
        WriteResponse(conn, RenderTraceList(request.id, hex_ids));
        return;
      }
      const uint64_t trace_id = obs::ParseTraceIdHex(request.trace_id);
      std::optional<std::vector<obs::StoredSpan>> spans =
          trace_id != 0 ? obs::TraceStoreGet(trace_id) : std::nullopt;
      if (!spans.has_value()) {
        WriteResponse(conn,
                      RenderError(request.id,
                                  Status::NotFound(StrFormat(
                                      "trace \"%s\" not retained (evicted, "
                                      "malformed, or never recorded)",
                                      request.trace_id.c_str()))));
        return;
      }
      std::vector<TraceSpanView> views;
      views.reserve(spans->size());
      for (obs::StoredSpan& span : *spans) {
        TraceSpanView view;
        view.name = std::move(span.name);
        view.category = std::move(span.category);
        view.phase = span.phase;
        view.tid = span.tid;
        view.depth = span.depth;
        view.ts_us = span.ts_us;
        view.dur_us = span.dur_us;
        views.push_back(std::move(view));
      }
      WriteResponse(conn, RenderTrace(request.id, request.trace_id, views));
      return;
    }
    case AdvisorRequest::Op::kFlight: {
      const std::string path = request.path.empty()
                                   ? obs::FlightRecorder::DefaultPath()
                                   : request.path;
      std::string error;
      if (!obs::FlightRecorder::Dump(path, obs::kFlightReasonExplicit,
                                     &error)) {
        WriteResponse(conn, RenderError(request.id, Status::IoError(error)));
        return;
      }
      WriteResponse(conn, RenderFlight(request.id, path));
      return;
    }
    case AdvisorRequest::Op::kAnalyze:
      Admit(request, conn);
      return;
  }
}

void AdvisorServer::Admit(const AdvisorRequest& request,
                          const std::shared_ptr<Connection>& conn) {
  PendingRequest pending;
  pending.request = request;
  pending.conn = conn;
  pending.admitted = std::chrono::steady_clock::now();
  // Minted at admission so queue wait, execution, and every store span
  // below share one id — the `trace` op keys on it.
  pending.trace_id = obs::MintTraceId();
  double deadline_s = request.deadline_s > 0.0 ? request.deadline_s
                                               : options_.default_deadline_s;
  if (deadline_s > 0.0) {
    pending.deadline =
        pending.admitted + std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(deadline_s));
  }

  bool admitted = false;
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!stopping_.load() && queue_.size() < options_.queue_limit) {
      queue_.push_back(std::move(pending));
      depth = queue_.size();
      admitted = true;
    } else {
      depth = queue_.size();
    }
  }
  if (admitted) {
    ++accepted_;
    LifecycleCounter("serve.requests_accepted")->Increment();
    WindowRequests()->Observe(1.0);
    QueueDepthGauge()->Set(static_cast<double>(depth));
    queue_cv_.notify_one();
    return;
  }
  ++shed_;
  RecordShed();
  obs::TraceInstant("serve", "shed");
  const char* reason = stopping_.load() ? "server shutting down"
                                        : "admission queue full";
  WriteResponse(
      conn, RenderError(request.id,
                        Status::Unavailable(StrFormat(
                            "%s (depth %zu, limit %zu)", reason, depth,
                            options_.queue_limit)),
                        options_.retry_after_ms));
}

void AdvisorServer::WorkerLoop(size_t index) {
  obs::Tracer::SetCurrentThreadName(StrFormat("serve-worker-%zu", index));
  while (true) {
    PendingRequest pending;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load() || (!queue_.empty() && !paused_);
      });
      if (stopping_.load()) return;  // leftovers are shed by Shutdown
      pending = std::move(queue_.front());
      queue_.pop_front();
      QueueDepthGauge()->Set(static_cast<double>(queue_.size()));
    }
    if (FaultInjector::Global().ShouldFire("worker_stall")) {
      // Models a worker wedged on slow IO/compute: the request it holds is
      // delayed (and may expire), but the queue bound keeps shedding
      // deterministic for everyone else.
      std::this_thread::sleep_for(kWorkerStall);
    }
    Execute(std::move(pending));
  }
}

void AdvisorServer::Execute(PendingRequest pending) {
  const std::string& id = pending.request.id;
  // Every span and fault instant below this frame inherits the request's
  // trace id (the worker thread's ambient context).
  obs::TraceContextScope trace_scope(pending.trace_id);
  auto observe_latency = [&pending] {
    const double latency_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      pending.admitted)
            .count();
    LatencyHistogram()->Observe(latency_s);
    WindowLatency()->Observe(latency_s);
  };

  if (pending.deadline.has_value() &&
      std::chrono::steady_clock::now() > *pending.deadline) {
    // Expired while queued: answer without burning compute. Nothing was
    // started, so there is nothing to checkpoint — the client's retry
    // starts (or resumes) the cell fresh.
    ++deadline_exceeded_;
    LifecycleCounter("serve.deadline_exceeded")->Increment();
    WriteResponse(pending.conn,
                  RenderError(id,
                              Status::DeadlineExceeded(
                                  "deadline expired in admission queue"),
                              options_.retry_after_ms));
    observe_latency();
    return;
  }

  std::string reply;
  {
    obs::TraceSpan span("serve", [&] {
      return StrFormat("request %s/%s/%s", pending.request.dataset.c_str(),
                       pending.request.error_type.c_str(),
                       pending.request.model.c_str());
    });
    Result<AdvisorAnalysis> analysis =
        service_->Analyze(pending.request, pending.deadline);
    if (analysis.ok()) {
      ++ok_;
      LifecycleCounter("serve.requests_ok")->Increment();
      analysis->trace_id = obs::TraceIdHex(pending.trace_id);
      reply = RenderAnalysis(id, *analysis);
    } else if (analysis.status().code() == StatusCode::kDeadlineExceeded) {
      ++deadline_exceeded_;
      LifecycleCounter("serve.deadline_exceeded")->Increment();
      reply = RenderError(id, analysis.status(), options_.retry_after_ms);
    } else {
      ++failed_;
      LifecycleCounter("serve.requests_failed")->Increment();
      reply = RenderError(id, analysis.status());
    }
  }
  // A span is stored when it closes: the root span closes before the reply
  // goes out, so a client that asks for this trace next gets the whole tree.
  WriteResponse(pending.conn, reply);
  observe_latency();
}

void AdvisorServer::WriteResponse(const std::shared_ptr<Connection>& conn,
                                  const std::string& line) {
  if (conn == nullptr || !conn->open.load()) return;
  // Deterministic response-loss site: the bytes never reach the peer and
  // the connection dies, as a mid-response network failure would.
  if (FaultInjector::Global().ShouldFire("socket_write")) {
    CloseConnection(conn);
    return;
  }
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (conn->fd < 0) return;
  if (!SendAll(conn->fd, line).ok()) {
    // Peer is gone; the reader will notice on its next recv.
    conn->open.store(false);
    ::shutdown(conn->fd, SHUT_RDWR);
  }
}

void AdvisorServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  if (conn->open.exchange(false)) {
    // shutdown() (not close) so the reader thread, which owns the fd,
    // unblocks from recv and performs the single close. The reader sets
    // fd to -1 under write_mutex, so read it under the same lock.
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
}

ServerStats AdvisorServer::Stats() const {
  ServerStats stats;
  stats.accepted = accepted_.load();
  stats.shed = shed_.load();
  stats.ok = ok_.load();
  stats.failed = failed_.load();
  stats.deadline_exceeded = deadline_exceeded_.load();
  stats.connections = open_connections_.load();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stats.queue_depth = queue_.size();
    stats.paused = paused_;
  }
  return stats;
}

void AdvisorServer::Wait() {
  std::unique_lock<std::mutex> lock(wait_mutex_);
  wait_cv_.wait(lock, [this] {
    return shutdown_requested_ || stopping_.load();
  });
}

bool AdvisorServer::WaitFor(double seconds) {
  std::unique_lock<std::mutex> lock(wait_mutex_);
  return wait_cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                           [this] {
                             return shutdown_requested_ || stopping_.load();
                           });
}

void AdvisorServer::Shutdown() {
  if (stopping_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    paused_ = false;  // a paused server must still shut down
  }
  queue_cv_.notify_all();
  for (std::thread& worker : worker_threads_) worker.join();

  // Whatever the workers left behind is shed with an honest answer rather
  // than silently dropped.
  std::deque<PendingRequest> leftovers;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    leftovers.swap(queue_);
    QueueDepthGauge()->Set(0.0);
  }
  for (PendingRequest& pending : leftovers) {
    ++shed_;
    RecordShed();
    WriteResponse(pending.conn,
                  RenderError(pending.request.id,
                              Status::Unavailable("server shutting down"),
                              options_.retry_after_ms));
  }

  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks accept()
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const std::weak_ptr<Connection>& weak : connections_) {
      if (std::shared_ptr<Connection> conn = weak.lock()) {
        CloseConnection(conn);
      }
    }
    readers.swap(conn_threads_);
  }
  for (std::thread& reader : readers) reader.join();

  {
    std::lock_guard<std::mutex> lock(wait_mutex_);
    wait_cv_.notify_all();
  }

  // Final export so the last window of metrics survives a graceful stop
  // (the periodic exporter only runs between intervals).
  obs::MetricsRegistry::Global().FlushExport();
}

}  // namespace serve
}  // namespace fairclean
