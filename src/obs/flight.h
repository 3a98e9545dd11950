#ifndef FAIRCLEAN_OBS_FLIGHT_H_
#define FAIRCLEAN_OBS_FLIGHT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace fairclean {
namespace obs {

/// Always-on crash flight recorder (DESIGN.md §14): every thread owns a
/// lock-free ring of compact 16-byte binary events (span begin/end, fault
/// fires, store transaction commits/rollbacks, request sheds, slice
/// writes). The enabled cost per event is a clock read plus a handful
/// of stores into thread-local memory — no locks, no allocation after the
/// ring exists — so the recorder stays armed in production and the last
/// seconds before a crash are always reconstructible.
///
/// The rings are dumped to a single binary file (`fairclean.flight` by
/// default) on a fatal signal, on deadline exhaustion, or on an explicit
/// request (the server's `flight` op). Dumps go through a temp file and a
/// rename, so a reader finds a complete dump or none — never a torn one.
/// FAIRCLEAN_FLIGHT overrides the dump path ("off" disables the recorder);
/// FAIRCLEAN_FLIGHT_EVENTS sizes the per-thread ring (default 4096 events,
/// rounded up to a power of two).

enum class FlightEventType : uint8_t {
  kSpanBegin = 1,    ///< site = span category; arg = span depth
  kSpanEnd = 2,      ///< site = span category; arg = duration in us
  kFault = 3,        ///< site = "fault:<site>"; injected fault fired
  // 4 and 5 are retired; values are part of the dump format, never reused.
  kShed = 6,         ///< site = "serve.shed"; admission or connection shed
  kCheckpoint = 7,   ///< site = "driver.checkpoint"; repeat slice written
  kDeadline = 8,     ///< site names the layer that tripped the deadline
  kMark = 9,         ///< free-form marker (tests, tools)
};

/// Human-readable name of an event type ("span_begin", ...); "?" when the
/// byte does not decode (torn ring entry).
const char* FlightEventTypeName(uint8_t type);

/// One ring slot, exactly as serialized: 16 bytes, little-endian fields.
struct FlightEntry {
  uint64_t ts_us = 0;  ///< microseconds since the trace epoch
  uint16_t site = 0;   ///< index into the interned site table
  uint8_t type = 0;    ///< FlightEventType
  uint8_t reserved = 0;
  uint32_t arg = 0;    ///< type-specific payload
};
static_assert(sizeof(FlightEntry) == 16, "flight entries are 16 bytes");

namespace internal {
extern std::atomic<bool> g_flight_enabled;
}  // namespace internal

/// Whole cost of a disabled recorder at every instrumentation point.
inline bool FlightEnabled() {
  return internal::g_flight_enabled.load(std::memory_order_relaxed);
}

class FlightRecorder {
 public:
  /// Reads FAIRCLEAN_FLIGHT / FAIRCLEAN_FLIGHT_EVENTS and arms the
  /// recorder (on unless FAIRCLEAN_FLIGHT is "off"/"0"/"none"). Idempotent;
  /// called from InitTraceFromEnv so every instrumented binary arms it.
  static void Init();

  /// Test/bench hooks: force the recorder on (fresh rings for threads that
  /// record afterwards keep `capacity` entries) or off. Rings already
  /// owned by live threads keep their capacity.
  static void Enable(size_t capacity = 4096);
  static void Disable();

  /// Interns `name` into the site table and returns its stable index.
  /// First call per name takes a mutex; later calls are a lock-free scan.
  /// The table is bounded; on overflow events land on site 0 ("?").
  static uint16_t Site(const std::string& name);

  /// Site id for a span category string. Caches by pointer identity, so
  /// passing string literals (as TraceSpan does) skips even the site-table
  /// scan on the hot path.
  static uint16_t SiteForCategory(const char* category);

  /// Appends one event to the calling thread's ring. No-op when disabled.
  static void Record(FlightEventType type, uint16_t site, uint32_t arg = 0);

  /// Installs handlers for SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT that dump
  /// the rings to the configured path (async-signal-safe: raw syscalls
  /// only) and then re-raise with default disposition.
  static void InstallCrashHandler();

  /// Dumps all rings to `path` via temp-file + rename. `reason` is stored
  /// in the header (0 explicit, 1..99 = signal number, 100 deadline).
  /// Returns false and fills `*error` on IO failure.
  static bool Dump(const std::string& path, uint32_t reason,
                   std::string* error);

  /// Dump to the configured default path.
  static bool DumpDefault(uint32_t reason, std::string* error);

  /// The configured dump path (FAIRCLEAN_FLIGHT or "fairclean.flight").
  static std::string DefaultPath();

  /// Events recorded by the calling thread so far (tests).
  static uint64_t EventsRecordedOnThisThread();
};

/// Reason code carried by deadline-triggered dumps.
constexpr uint32_t kFlightReasonExplicit = 0;
constexpr uint32_t kFlightReasonDeadline = 100;

/// Decoded dump: the site table plus one chronological event list per
/// recording thread (ring order is unwound; entries that fail validation —
/// possible when a crashing thread raced a writer — are dropped).
struct FlightDump {
  uint32_t version = 0;
  uint32_t reason = 0;
  std::vector<std::string> sites;
  struct Thread {
    uint32_t tid = 0;
    uint64_t recorded = 0;  ///< total events ever recorded (>= events.size())
    std::vector<FlightEntry> events;
  };
  std::vector<Thread> threads;

  size_t TotalEvents() const;
};

/// Parses a dump file. Returns false and fills `*error` on missing file,
/// bad magic, or a structurally truncated file.
bool DecodeFlightFile(const std::string& path, FlightDump* dump,
                      std::string* error);

}  // namespace obs
}  // namespace fairclean

#endif  // FAIRCLEAN_OBS_FLIGHT_H_
