#ifndef FAIRCLEAN_COMMON_THREAD_POOL_H_
#define FAIRCLEAN_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace fairclean {

namespace internal {
/// Observability hooks for Submit (implemented in thread_pool.cc so the
/// template stays header-only without pulling obs headers in here).
/// Returns the enqueue timestamp in microseconds when tracing or metrics
/// export is active, -1 otherwise — so the disabled path never reads a
/// clock.
int64_t QueueEnqueueStamp();
/// Records now - enqueue_us into the "threadpool.queue_wait_s" histogram;
/// no-op when enqueue_us < 0.
void ObserveQueueWait(int64_t enqueue_us);
/// The submitter's ambient trace id (0 = none), captured at Submit so the
/// task inherits the request context it was spawned under.
uint64_t SubmitTraceId();
/// Installs `trace_id` as the worker's ambient context; returns the
/// previous id so the task wrapper can restore it after running.
uint64_t SwapTraceId(uint64_t trace_id);
}  // namespace internal

/// Fixed-size worker pool used to fan out independent units of work
/// (experiment cells in the suite scheduler, cross-validation folds and
/// kernel blocks through the shared fold pool).
///
/// Tasks are submitted as callables and their results retrieved through
/// std::future; an exception thrown by a task is captured in the future and
/// rethrown at get(), never on a worker thread. The destructor runs every
/// task already submitted before joining, so futures obtained from Submit
/// are always satisfied and task captures stay alive for the task's whole
/// execution as long as they outlive the pool object.
///
/// Nested parallelism is deliberately not supported: a task that blocks on
/// futures of the same (or another) fixed pool can deadlock once all
/// workers block. Code that may run either at top level or inside a pool
/// task checks OnWorkerThread() and falls back to inline execution.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues `fn` and returns the future of its result. Safe to call from
  /// any thread except a worker of this pool (nested submission from a
  /// worker would risk deadlock and is reported via OnWorkerThread()).
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    int64_t enqueue_us = internal::QueueEnqueueStamp();
    uint64_t trace_id = internal::SubmitTraceId();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push([task, enqueue_us, trace_id]() {
        // The task runs under the submitter's trace id, so repeat slices
        // fanned out by a request's driver still tag its spans.
        uint64_t previous = internal::SwapTraceId(trace_id);
        internal::ObserveQueueWait(enqueue_us);
        (*task)();  // packaged_task captures exceptions; never throws here
        internal::SwapTraceId(previous);
      });
    }
    cv_.notify_one();
    return future;
  }

  /// True when the calling thread is a worker of *any* ThreadPool. Used by
  /// the fold loops to run inline instead of re-entering a pool from a pool
  /// task.
  static bool OnWorkerThread();

  /// Worker count from FAIRCLEAN_THREADS; unset or <= 0 falls back to
  /// std::thread::hardware_concurrency() (minimum 1).
  static size_t DefaultThreadCount();

  /// Process-wide pool for fold-level parallelism, or nullptr when fold
  /// loops should run inline: on a worker thread (no nesting), or when the
  /// configured thread count is 1. The pool is created on first use with
  /// DefaultThreadCount() workers and lives for the process.
  static ThreadPool* SharedForFolds();

 private:
  void WorkerLoop(size_t worker_index);

  size_t pool_id_ = 0;
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Invokes `fn`, converting a thrown exception into Status::Internal so
/// pool tasks whose natural result is a Status never terminate the process.
Status InvokeWithStatusCapture(const std::function<Status()>& fn);

/// Runs fn(0) .. fn(count - 1) — across `pool` when non-null, inline
/// otherwise — and returns the results in index order, so downstream
/// accumulation (float sums, skip counting) is order-independent of the
/// scheduling. Every submitted task is drained before the first captured
/// exception is rethrown, which keeps by-reference captures valid even on
/// failure. `fn` must be safe to call concurrently for distinct indices.
template <typename Fn>
auto RunIndexed(ThreadPool* pool, size_t count, Fn&& fn)
    -> std::vector<std::invoke_result_t<std::decay_t<Fn>, size_t>> {
  using R = std::invoke_result_t<std::decay_t<Fn>, size_t>;
  std::vector<R> results;
  results.reserve(count);
  if (pool == nullptr || count <= 1) {
    for (size_t i = 0; i < count; ++i) results.push_back(fn(i));
    return results;
  }
  std::vector<std::future<R>> futures;
  futures.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    futures.push_back(pool->Submit([&fn, i]() { return fn(i); }));
  }
  std::exception_ptr first_error;
  for (std::future<R>& future : futures) {
    try {
      results.push_back(future.get());
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace fairclean

#endif  // FAIRCLEAN_COMMON_THREAD_POOL_H_
