#ifndef FAIRCLEAN_SERVE_SERVER_H_
#define FAIRCLEAN_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "sched/suite_runner.h"
#include "serve/advisor_service.h"
#include "serve/protocol.h"

namespace fairclean {
namespace serve {

/// Serving knobs, resolved once at startup (ServeOptionsFromEnv) like the
/// suite's. All parsing is strict: a typo'd knob aborts startup instead of
/// silently serving with a default.
struct ServeOptions {
  /// TCP port on 127.0.0.1 (FAIRCLEAN_SERVE_PORT). 0 binds an ephemeral
  /// port, reported by AdvisorServer::port() — what the tests use.
  uint16_t port = 7433;
  /// Admission-queue bound (FAIRCLEAN_SERVE_QUEUE). The queue holds
  /// requests admitted but not yet picked up by a worker; a request
  /// arriving at a full queue is shed immediately with Unavailable and a
  /// retry_after_ms hint — the server never queues unboundedly and a
  /// client can always distinguish "overloaded" from "wedged".
  size_t queue_limit = 16;
  /// Default per-request deadline in seconds (FAIRCLEAN_SERVE_DEADLINE_S,
  /// 0 = none), measured from admission so queue wait counts against it. A
  /// request's own deadline_s overrides it.
  double default_deadline_s = 0.0;
  /// Worker threads executing analyses (0: FAIRCLEAN_THREADS).
  size_t workers = 0;
  /// Backoff hint attached to shed responses (FAIRCLEAN_SERVE_RETRY_MS).
  int retry_after_ms = 200;
  /// Open-connection bound; excess accepts are answered with a shed
  /// response and closed immediately.
  size_t max_connections = 64;
  /// The resident stack's scale/cache knobs (FAIRCLEAN_SAMPLE, ...).
  sched::SuiteOptions suite;
};

/// Reads every serve and suite knob strictly; InvalidArgument on garbage.
Result<ServeOptions> ServeOptionsFromEnv();

/// The cleaning-advisor TCP server: a bounded-admission, deadline-aware
/// front end over AdvisorService.
///
/// Request lifecycle (DESIGN.md §10):
///   accept -> read line (socket_read fault) -> parse + validate
///   (request_parse fault) -> control op inline, or admit to the bounded
///   queue (full -> shed with Unavailable + retry_after_ms) -> worker
///   dequeues (worker_stall fault) -> expired in queue? answer
///   DeadlineExceeded without computing : run AdvisorService::Analyze
///   under the deadline -> write response (socket_write fault).
///
/// Threads: one acceptor, one reader per connection, `workers` analysis
/// workers. Responses to one connection are serialized by a per-connection
/// write mutex (a worker and the reader never interleave bytes).
///
/// Shutdown: Shutdown() stops accepting, sheds whatever is still queued
/// (Unavailable, "shutting down"), unblocks readers, and joins every
/// thread. A SIGKILL needs no cooperation: cache writes are atomic and
/// every finished repeat is its own slice record, so a restarted server
/// resumes in-flight cells from their slices (the soak test pins byte
/// identity with an unfaulted run).
class AdvisorServer {
 public:
  explicit AdvisorServer(ServeOptions options);
  ~AdvisorServer();

  AdvisorServer(const AdvisorServer&) = delete;
  AdvisorServer& operator=(const AdvisorServer&) = delete;

  /// Binds, listens, and spawns the acceptor and worker threads.
  Status Start();

  /// The actually bound port (differs from options.port when it was 0).
  uint16_t port() const { return port_; }

  /// Blocks until Shutdown() is called or a client sends {"op":"shutdown"}.
  void Wait();

  /// Wait with a timeout: returns true when shutdown was requested (by a
  /// client op or Shutdown()), false on timeout. Lets a main loop poll a
  /// SIGTERM flag between waits without busy-spinning.
  bool WaitFor(double seconds);

  /// Graceful stop; idempotent. Safe to call from any non-server thread.
  void Shutdown();

  /// Point-in-time lifecycle counters (also served by the stats op).
  ServerStats Stats() const;

  AdvisorService& service() { return *service_; }

 private:
  struct Connection {
    int fd = -1;
    std::mutex write_mutex;
    std::atomic<bool> open{true};
  };

  struct PendingRequest {
    AdvisorRequest request;
    std::shared_ptr<Connection> conn;
    std::chrono::steady_clock::time_point admitted;
    std::optional<std::chrono::steady_clock::time_point> deadline;
  };

  void AcceptLoop();
  void ConnectionLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop(size_t index);

  /// Dispatches one parsed request from the reader thread: control ops
  /// answer inline; analyze ops go through admission.
  void Dispatch(const AdvisorRequest& request,
                const std::shared_ptr<Connection>& conn);
  void Admit(const AdvisorRequest& request,
             const std::shared_ptr<Connection>& conn);
  /// Runs one dequeued request on a worker and writes its response.
  void Execute(PendingRequest pending);

  /// Writes one response line under the connection's write mutex; fires
  /// the socket_write fault (dropping the response and closing the
  /// connection) when armed.
  void WriteResponse(const std::shared_ptr<Connection>& conn,
                     const std::string& line);
  void CloseConnection(const std::shared_ptr<Connection>& conn);

  ServeOptions options_;
  std::unique_ptr<AdvisorService> service_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;

  std::thread accept_thread_;
  std::vector<std::thread> worker_threads_;
  std::mutex conn_mutex_;
  std::vector<std::thread> conn_threads_;
  std::vector<std::weak_ptr<Connection>> connections_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<PendingRequest> queue_;
  bool paused_ = false;
  std::atomic<bool> stopping_{false};

  std::mutex wait_mutex_;
  std::condition_variable wait_cv_;
  bool shutdown_requested_ = false;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> open_connections_{0};
};

}  // namespace serve
}  // namespace fairclean

#endif  // FAIRCLEAN_SERVE_SERVER_H_
