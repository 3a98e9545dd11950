#include "obs/trace.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/json_lite.h"
#include "obs/log.h"

namespace fairclean {
namespace obs {

namespace internal {

std::atomic<bool> g_trace_enabled{false};

}  // namespace internal

namespace {

struct Event {
  std::string name;
  const char* category;  // always a string literal at call sites
  char phase;            // 'X' complete, 'i' instant
  uint32_t tid;
  int64_t ts_us;
  int64_t dur_us;
};

// One per thread that ever traced. Owned jointly by the thread (via a
// thread_local shared_ptr) and the tracer's registry, so events survive
// thread exit until the next flush.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<Event> events;
  uint32_t tid = 0;
  std::string thread_name;
};

// Name a thread asked for before its buffer existed (SetCurrentThreadName
// is callable while tracing is disabled).
thread_local std::string t_pending_thread_name;
thread_local std::shared_ptr<ThreadBuffer> t_buffer;

// Immutable trace epoch, fixed the first time anyone asks (the singleton's
// construction). A function-local static keeps it data-race free without
// locking on the NowMicros hot path.
std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

struct Tracer::Impl {
  std::mutex mutex;  // guards path, buffers registry, drained events
  std::string path;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::vector<Event> drained;
  std::atomic<uint32_t> next_tid{1};
  bool atexit_registered = false;

  ThreadBuffer* BufferForThisThread() {
    if (t_buffer == nullptr) {
      auto buffer = std::make_shared<ThreadBuffer>();
      buffer->tid = next_tid.fetch_add(1, std::memory_order_relaxed);
      buffer->thread_name = t_pending_thread_name;
      {
        std::lock_guard<std::mutex> lock(mutex);
        buffers.push_back(buffer);
      }
      t_buffer = std::move(buffer);
    }
    return t_buffer.get();
  }
};

Tracer::Tracer() : impl_(new Impl) { TraceEpoch(); }

Tracer& Tracer::Global() {
  // Leaked singleton: worker threads may still trace during late shutdown,
  // after static destructors would have run.
  static Tracer* tracer = [] {
    Tracer* instance = new Tracer();
    const char* path = std::getenv("FAIRCLEAN_TRACE");
    if (path != nullptr && path[0] != '\0') instance->Enable(path);
    return instance;
  }();
  return *tracer;
}

void Tracer::Enable(const std::string& path) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->path = path;
  if (!impl_->atexit_registered) {
    impl_->atexit_registered = true;
    std::atexit([] { Tracer::Global().Flush(); });
  }
  internal::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() {
  Flush();
  internal::g_trace_enabled.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->drained.clear();
  impl_->path.clear();
}

int64_t Tracer::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - TraceEpoch())
      .count();
}

void Tracer::RecordComplete(const char* category, std::string name,
                            int64_t ts_us, int64_t dur_us) {
  ThreadBuffer* buffer = impl_->BufferForThisThread();
  std::lock_guard<std::mutex> lock(buffer->mutex);
  buffer->events.push_back(
      Event{std::move(name), category, 'X', buffer->tid, ts_us, dur_us});
}

void Tracer::RecordInstant(const char* category, std::string name) {
  const int64_t ts_us = NowMicros();
  ThreadBuffer* buffer = impl_->BufferForThisThread();
  std::lock_guard<std::mutex> lock(buffer->mutex);
  buffer->events.push_back(
      Event{std::move(name), category, 'i', buffer->tid, ts_us, 0});
}

void Tracer::SetCurrentThreadName(const std::string& name) {
  t_pending_thread_name = name;
  if (t_buffer != nullptr) {
    std::lock_guard<std::mutex> lock(t_buffer->mutex);
    t_buffer->thread_name = name;
  }
}

uint32_t Tracer::CurrentThreadTid() {
  return Global().impl_->BufferForThisThread()->tid;
}

std::string Tracer::path() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->path;
}

void Tracer::Flush() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->path.empty()) return;

  // Drain every thread's buffer into the accumulated list; thread names go
  // into metadata events keyed by tid.
  std::vector<std::pair<uint32_t, std::string>> thread_names;
  for (const std::shared_ptr<ThreadBuffer>& buffer : impl_->buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    impl_->drained.insert(impl_->drained.end(),
                          std::make_move_iterator(buffer->events.begin()),
                          std::make_move_iterator(buffer->events.end()));
    buffer->events.clear();
    if (!buffer->thread_name.empty()) {
      thread_names.emplace_back(buffer->tid, buffer->thread_name);
    }
  }

  std::ofstream out(impl_->path, std::ios::binary | std::ios::trunc);
  if (!out) {
    FC_LOG_ERROR("trace", "cannot write trace file %s",
                 impl_->path.c_str());
    return;
  }
  const long long pid = static_cast<long long>(::getpid());
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [tid, name] : thread_names) {
    out << (first ? "" : ",") << "\n{\"name\":\"thread_name\",\"ph\":\"M\","
        << "\"pid\":" << pid << ",\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << JsonEscape(name) << "\"}}";
    first = false;
  }
  for (const Event& event : impl_->drained) {
    out << (first ? "" : ",") << "\n{\"name\":\"" << JsonEscape(event.name)
        << "\",\"cat\":\"" << JsonEscape(event.category)
        << "\",\"ph\":\"" << event.phase << "\",\"pid\":" << pid
        << ",\"tid\":" << event.tid << ",\"ts\":" << event.ts_us;
    if (event.phase == 'X') {
      out << ",\"dur\":" << event.dur_us;
    } else if (event.phase == 'i') {
      out << ",\"s\":\"t\"";
    }
    out << "}";
    first = false;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void TraceSpan::Begin(const char* category, std::string name) {
  active_ = true;
  category_ = category;
  name_ = std::move(name);
  start_us_ = Tracer::Global().NowMicros();
}

void TraceSpan::End() {
  // Tracing may have been disabled mid-span (tests); such a span is
  // dropped rather than recorded into a buffer no flush will drain.
  if (!TraceEnabled()) return;
  Tracer& tracer = Tracer::Global();
  const int64_t dur_us = tracer.NowMicros() - start_us_;
  tracer.RecordComplete(category_, std::move(name_), start_us_, dur_us);
}

}  // namespace obs
}  // namespace fairclean
