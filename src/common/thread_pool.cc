#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>

#include "common/check.h"
#include "common/env.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fairclean {

namespace internal {

int64_t QueueEnqueueStamp() {
  if (!obs::TraceEnabled() && !obs::MetricsExportEnabled()) return -1;
  return obs::Tracer::Global().NowMicros();
}

void ObserveQueueWait(int64_t enqueue_us) {
  if (enqueue_us < 0) return;
  static obs::Histogram* const histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "threadpool.queue_wait_s",
          obs::MetricsRegistry::DefaultLatencyBounds());
  int64_t waited_us = obs::Tracer::Global().NowMicros() - enqueue_us;
  histogram->Observe(static_cast<double>(waited_us) * 1e-6);
}

}  // namespace internal

namespace {

thread_local bool t_on_worker_thread = false;

// Distinguishes workers of different pools in trace thread names.
std::atomic<size_t> g_next_pool_id{1};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads)
    : pool_id_(g_next_pool_id.fetch_add(1, std::memory_order_relaxed)) {
  size_t count = std::max<size_t>(1, num_threads);
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this, i]() { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  t_on_worker_thread = true;
  // Sticks for the thread's lifetime; spans executed on this worker carry
  // its tid and the trace shows a "worker-<pool>-<index>" lane.
  obs::Tracer::SetCurrentThreadName("worker-" + std::to_string(pool_id_) +
                                    "-" + std::to_string(worker_index));
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this]() { return stop_ || !queue_.empty(); });
      // Drain the queue even when stopping: every submitted future must be
      // satisfied, and tasks may reference state the submitter keeps alive
      // until the pool is destroyed.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

bool ThreadPool::OnWorkerThread() { return t_on_worker_thread; }

size_t ThreadPool::DefaultThreadCount() {
  // run_suite rejects a malformed value first (through
  // TrySuiteOptionsFromEnv); the check guards every other caller.
  Result<int64_t> configured = GetEnvCount("FAIRCLEAN_THREADS", 0);
  FC_CHECK_MSG(configured.ok(), configured.status().ToString().c_str());
  if (*configured > 0) return static_cast<size_t>(*configured);
  unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<size_t>(hardware);
}

ThreadPool* ThreadPool::SharedForFolds() {
  if (OnWorkerThread()) return nullptr;
  // Sized once at first use; a 1-thread configuration disables fold
  // parallelism entirely rather than paying queue overhead for nothing.
  static ThreadPool* shared = []() -> ThreadPool* {
    size_t count = DefaultThreadCount();
    return count <= 1 ? nullptr : new ThreadPool(count);
  }();
  return shared;
}

Status InvokeWithStatusCapture(const std::function<Status()>& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("task threw: ") + e.what());
  } catch (...) {
    return Status::Internal("task threw a non-standard exception");
  }
}

}  // namespace fairclean
