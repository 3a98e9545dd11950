// Telemetry-plane benchmark (DESIGN.md §14): the costs the always-on
// recorders impose on an instrumented hot path.
//
// Measured:
//   - flight_on_ns / flight_off_ns      per-event cost of
//     FlightRecorder::Record with the recorder enabled, and of the same
//     call site when disabled (the guard-only path the suite pays when
//     FAIRCLEAN_FLIGHT=off),
//   - span_off_ns / span_flight_ns      per-span cost of a TraceSpan with
//     all capture off vs flight-only capture (the §8 identity runs care
//     about exactly this delta).
//
// Output: human summary on stdout, JSON report to --out
// (default BENCH_obs.json). All medians of --rounds (default 5) rounds.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "obs/flight.h"
#include "obs/trace.h"

namespace {

using namespace fairclean;  // NOLINT

constexpr size_t kFlightEvents = 1000000;
constexpr size_t kSpans = 200000;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Keeps the optimizer from deleting a measured loop.
template <typename T>
void DoNotOptimize(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

struct Report {
  double flight_on_ns = 0.0;
  double flight_off_ns = 0.0;
  double span_off_ns = 0.0;
  double span_flight_ns = 0.0;
};

double TimeFlight() {
  const uint16_t site = obs::FlightRecorder::Site("bench.flight");
  double start = NowSeconds();
  for (size_t i = 0; i < kFlightEvents; ++i) {
    if (obs::FlightEnabled()) {
      obs::FlightRecorder::Record(obs::FlightEventType::kMark, site,
                                  static_cast<uint32_t>(i));
    }
  }
  return (NowSeconds() - start) / static_cast<double>(kFlightEvents) * 1e9;
}

double TimeSpans() {
  double start = NowSeconds();
  for (size_t i = 0; i < kSpans; ++i) {
    obs::TraceSpan span("bench", "span");
    DoNotOptimize(span);
  }
  return (NowSeconds() - start) / static_cast<double>(kSpans) * 1e9;
}

int Run(int argc, char** argv) {
  std::string out_path = "BENCH_obs.json";
  int rounds = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: obs_bench [--out FILE] [--rounds N]\n");
      return 2;
    }
  }
  if (rounds < 1) rounds = 1;

  Report report;
  std::vector<double> on_ns, off_ns, span_off_ns, span_flight_ns;
  for (int round = 0; round < rounds; ++round) {
    obs::FlightRecorder::Disable();
    off_ns.push_back(TimeFlight());
    span_off_ns.push_back(TimeSpans());
    obs::FlightRecorder::Enable(1 << 16);
    on_ns.push_back(TimeFlight());
    span_flight_ns.push_back(TimeSpans());
    obs::FlightRecorder::Disable();
  }
  report.flight_on_ns = Median(on_ns);
  report.flight_off_ns = Median(off_ns);
  report.span_off_ns = Median(span_off_ns);
  report.span_flight_ns = Median(span_flight_ns);

  std::printf("obs bench (%d rounds, medians):\n", rounds);
  std::printf("  flight record on   %10.1f ns/event\n", report.flight_on_ns);
  std::printf("  flight record off  %10.1f ns/event\n", report.flight_off_ns);
  std::printf("  span capture-off   %10.1f ns/span\n", report.span_off_ns);
  std::printf("  span flight-only   %10.1f ns/span\n",
              report.span_flight_ns);

  std::string json = StrFormat(
      "{\"bench\":\"obs\",\"rounds\":%d,"
      "\"flight\":{\"events\":%zu,\"on_ns\":%.1f,\"off_ns\":%.1f},"
      "\"span\":{\"spans\":%zu,\"off_ns\":%.1f,\"flight_ns\":%.1f}}\n",
      rounds, kFlightEvents, report.flight_on_ns, report.flight_off_ns,
      kSpans, report.span_off_ns, report.span_flight_ns);
  std::ofstream out(out_path, std::ios::trunc);
  if (!out || !(out << json)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("report written to %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
