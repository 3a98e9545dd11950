#ifndef FAIRCLEAN_OBS_TRACE_H_
#define FAIRCLEAN_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

namespace fairclean {
namespace obs {

namespace internal {
/// True while the trace file sink is on. Instrumentation points read it
/// with one relaxed load; false is the whole cost of disabled tracing.
extern std::atomic<bool> g_trace_enabled;
}  // namespace internal

/// True when the trace file sink is active (FAIRCLEAN_TRACE / Enable()).
inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Span-based tracer emitting Chrome trace-event JSON (the format Perfetto
/// and chrome://tracing load). Activated by FAIRCLEAN_TRACE=<path> at
/// process start, or programmatically via Enable() (tests).
///
/// Threading model: every thread appends completed events to its own
/// buffer behind a thread-local pointer, so concurrently tracing workers
/// never contend on a shared sink (each buffer has a private mutex that is
/// only ever contended by Flush). Spans record at scope exit — a span's
/// constructor just reads the clock; all bookkeeping happens in the
/// destructor on the owning thread.
///
/// Determinism: the tracer only observes. It draws no randomness, changes
/// no control flow, and writes only to its own file, so scores, cell and
/// slice records are byte-identical with tracing on or off (enforced by
/// tests/exec/observability_test.cc).
class Tracer {
 public:
  /// Process-wide tracer (constructed on first use; reads FAIRCLEAN_TRACE).
  static Tracer& Global();

  /// Starts tracing into `path` and registers an at-exit flush. Idempotent
  /// re-enable switches the output path.
  void Enable(const std::string& path);

  /// Flushes, writes the file, drops buffered events, and stops tracing.
  void Disable();

  /// Drains all thread buffers and (re)writes the complete trace file.
  /// Safe to call at any time; the file is always valid JSON.
  void Flush();

  /// Microseconds since the trace epoch (first Enable).
  int64_t NowMicros() const;

  /// Records a complete ("ph":"X") event into the calling thread's buffer.
  void RecordComplete(const char* category, std::string name, int64_t ts_us,
                      int64_t dur_us);

  /// Records an instant ("ph":"i") event, e.g. a fault-injection fire.
  void RecordInstant(const char* category, std::string name);

  /// Names the calling thread in the trace ("worker-2"). Cheap and safe to
  /// call whether or not tracing is (yet) enabled; the name sticks for the
  /// thread's lifetime. Thread-pool workers call this once at start-up so
  /// spans executed on them carry a stable worker tid.
  static void SetCurrentThreadName(const std::string& name);

  /// Small stable tid assigned to the calling thread (1 = first thread that
  /// traced). Exposed for tests.
  static uint32_t CurrentThreadTid();

  std::string path() const;

 private:
  Tracer();
  ~Tracer() = delete;  // process-lifetime singleton, flushed via atexit

  struct Impl;
  Impl* impl_;
};

/// RAII span: measures from construction to destruction and records into
/// the trace file buffer of the owning thread. When tracing is disabled the
/// constructor is a single branch and the name is never materialized.
class TraceSpan {
 public:
  /// Static-name span: FC_TRACE_SPAN("ml", "TuneAndFit").
  TraceSpan(const char* category, const char* name) {
    if (TraceEnabled()) Begin(category, name);
  }

  /// Dynamic-name span; the callable (returning std::string) runs only
  /// when tracing is enabled:
  ///   TraceSpan span("exec", [&] { return StrFormat("repeat r%zu", r); });
  template <typename NameFn,
            typename = std::enable_if_t<
                std::is_invocable_r_v<std::string, NameFn>>>
  TraceSpan(const char* category, NameFn&& name_fn) {
    if (TraceEnabled()) Begin(category, std::forward<NameFn>(name_fn)());
  }

  ~TraceSpan() {
    if (active_) End();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void Begin(const char* category, std::string name);
  void End();

  bool active_ = false;
  const char* category_ = nullptr;
  std::string name_;
  int64_t start_us_ = 0;
};

/// Forces the tracer's one-time FAIRCLEAN_TRACE env read. Instrumentation
/// points are pure atomic-load no-ops until the first Tracer::Global()
/// touch, so process entry points (the study driver constructor, bench
/// start-up) call this to guarantee the very first spans are captured.
inline void InitTraceFromEnv() { Tracer::Global(); }

/// Instant event helper with the same disabled-path guarantee as TraceSpan.
inline void TraceInstant(const char* category, const char* name) {
  if (TraceEnabled()) Tracer::Global().RecordInstant(category, name);
}

}  // namespace obs
}  // namespace fairclean

#endif  // FAIRCLEAN_OBS_TRACE_H_
