// Operator console for the telemetry plane (DESIGN.md §14).
//
// Live mode — polls a running advisor server's `metrics` op and renders
// interval deltas, the way `top` renders /proc:
//   obs_tool live --port P [--host H] [--interval S] [--count N]
// Counters print as rates over the poll interval, gauges as their current
// value, and sliding-window histograms as the server-side window's
// count/p50/p95/p99 (already limited to FAIRCLEAN_METRICS_WINDOW_S
// seconds, so a quiet server decays to zero instead of averaging its
// whole life).
//
// Offline mode — digests artifacts the plane leaves on disk:
//   obs_tool trace <trace.json> [--filter S]  # FAIRCLEAN_TRACE output
//   obs_tool metrics <metrics.jsonl>          # periodic exporter output
//   obs_tool flight <fairclean.flight>        # crash/deadline/explicit dump
// The trace digest aggregates complete events into a per-site latency
// table (count, total, mean, p50, p95, max). Span names are normalized by
// collapsing every digit run to '#', so per-item spans ("tune fold 3
// log-reg", "slot adult/missing_values/knn r12") fold into one row per call
// site; instant events are tallied by name. Scheduler cell spans are
// wave-tagged ("cell w3 adult/missing_values/knn") and fold into a
// per-wave breakdown, and spans carrying a trace id fold into per-request
// digests. `--filter` narrows the site table to categories/sites
// containing S (e.g. `--filter sched`).
// The flight digest prints the dump header, per-thread ring occupancy,
// per-site event counts, and the newest events last (the crash is at the
// bottom, where eyes land).

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/safe_io.h"
#include "obs/flight.h"
#include "obs/json_lite.h"
#include "serve/client.h"

namespace {

using namespace fairclean;  // NOLINT

int Usage() {
  std::fprintf(stderr,
               "usage: obs_tool live --port P [--host H] [--interval S] "
               "[--count N]\n"
               "       obs_tool trace <trace.json> [--filter S]\n"
               "       obs_tool metrics <metrics.jsonl>\n"
               "       obs_tool flight <fairclean.flight>\n");
  return 2;
}

// ---------------------------------------------------------------- live --

struct MetricRow {
  std::string type;
  double value = 0.0;   // counter/gauge
  double count = 0.0;   // histograms
  double p50 = 0.0, p95 = 0.0, p99 = 0.0, max = 0.0;
  double window_s = 0.0;  // > 0: sliding window
};

std::map<std::string, MetricRow> ParseScrape(const obs::JsonValue& metrics) {
  std::map<std::string, MetricRow> rows;
  for (const obs::JsonValue& entry : metrics.array_items) {
    MetricRow row;
    row.type = entry.StringOr("type", "?");
    row.value = entry.NumberOr("value", 0.0);
    row.count = entry.NumberOr("count", 0.0);
    row.p50 = entry.NumberOr("p50", 0.0);
    row.p95 = entry.NumberOr("p95", 0.0);
    row.p99 = entry.NumberOr("p99", 0.0);
    row.max = entry.NumberOr("max", 0.0);
    row.window_s = entry.NumberOr("window_s", 0.0);
    rows[entry.StringOr("metric", "?")] = row;
  }
  return rows;
}

int RunLive(const std::string& host, int port, double interval_s,
            long ticks) {
  serve::AdvisorClient client(host, static_cast<uint16_t>(port));
  std::map<std::string, MetricRow> previous;
  for (long tick = 0; ticks < 0 || tick < ticks; ++tick) {
    Result<serve::AdvisorResponse> response =
        client.Call("{\"op\":\"metrics\",\"id\":\"obs_tool\"}");
    if (!response.ok()) {
      std::fprintf(stderr, "scrape failed: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    if (!response->ok()) {
      std::fprintf(stderr, "server error: %s\n", response->error.c_str());
      return 3;
    }
    const obs::JsonValue* metrics = response->json.Find("metrics");
    if (metrics == nullptr || !metrics->is_array()) {
      std::fprintf(stderr, "malformed scrape: no metrics array\n");
      return 1;
    }
    std::map<std::string, MetricRow> rows = ParseScrape(*metrics);

    std::printf("== scrape %ld (%s:%d, every %.1fs) ==\n", tick,
                host.c_str(), port, interval_s);
    std::printf("%-40s %-10s %14s\n", "metric", "type", "value");
    for (const auto& [name, row] : rows) {
      if (row.type == "counter") {
        double delta = row.value;
        auto it = previous.find(name);
        if (it != previous.end()) delta = row.value - it->second.value;
        std::printf("%-40s %-10s %14.0f  (+%.1f/s)\n", name.c_str(),
                    "counter", row.value,
                    tick == 0 ? 0.0 : delta / interval_s);
      } else if (row.type == "gauge") {
        std::printf("%-40s %-10s %14g\n", name.c_str(), "gauge", row.value);
      } else if (row.window_s > 0.0) {
        std::printf(
            "%-40s %-10s n=%-8.0f p50=%-9g p95=%-9g p99=%-9g (%gs win)\n",
            name.c_str(), "window", row.count, row.p50, row.p95, row.p99,
            row.window_s);
      } else {
        std::printf("%-40s %-10s n=%-8.0f p50=%-9g p95=%-9g max=%g\n",
                    name.c_str(), "histogram", row.count, row.p50, row.p95,
                    row.max);
      }
    }
    std::printf("\n");
    std::fflush(stdout);
    previous = std::move(rows);
    if (ticks < 0 || tick + 1 < ticks) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
    }
  }
  return 0;
}

// --------------------------------------------------------------- trace --

/// Collapses every run of decimal digits to a single '#': "fold 12 of 5"
/// -> "fold # of #". Keeps per-item spans from exploding the table.
std::string NormalizeName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  bool in_digits = false;
  for (char c : name) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      if (!in_digits) out.push_back('#');
      in_digits = true;
    } else {
      out.push_back(c);
      in_digits = false;
    }
  }
  return out;
}

/// One request's digest, grouped by the trace id spans are tagged with.
struct TraceStats {
  size_t spans = 0;
  size_t instants = 0;          ///< fault fires and sheds in this request
  double busy_us = 0.0;         ///< sum of span durations (overlaps count)
  double first_ts_us = 1e300;   ///< earliest span start
  double last_end_us = 0.0;     ///< latest span end
  double slowest_us = 0.0;
  std::string slowest;          ///< name of the longest span
};

/// One Kahn wave's cell compute (sched "cell w<k> ..." spans).
struct WaveStats {
  size_t cells = 0;
  double cell_us = 0.0;
  double slowest_cell_us = 0.0;
  std::string slowest_cell;
};

/// Parses the wave tag of a scheduler cell span ("cell w3 adult/..."):
/// stores the wave index in *wave and the cell id in *rest. False when the
/// name is not wave-tagged (e.g. a standalone cell produced outside a
/// wave) or the index does not fit size_t; such spans count as untagged.
bool ParseCellWaveTag(const std::string& name, size_t* wave,
                      std::string* rest) {
  static const std::string kPrefix = "cell w";
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  size_t pos = kPrefix.size();
  size_t value = 0;
  size_t digits_end = pos;
  for (; digits_end < name.size() &&
         std::isdigit(static_cast<unsigned char>(name[digits_end]));
       ++digits_end) {
    size_t digit = static_cast<size_t>(name[digits_end] - '0');
    if (value > (std::numeric_limits<size_t>::max() - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  if (digits_end == pos || digits_end >= name.size() ||
      name[digits_end] != ' ') {
    return false;
  }
  *wave = value;
  *rest = name.substr(digits_end + 1);
  return true;
}

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  double rank = p * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

int DigestTrace(const std::string& path, const std::string& filter) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                 text.status().ToString().c_str());
    return 1;
  }
  obs::JsonValue root;
  std::string error;
  if (!obs::JsonValue::Parse(*text, &root, &error)) {
    std::fprintf(stderr, "%s: invalid JSON: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  const obs::JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "%s: missing traceEvents array\n", path.c_str());
    return 1;
  }

  // Site key: "<category>\t<normalized name>" -> span durations.
  std::map<std::string, std::vector<double>> sites;
  std::map<std::string, int64_t> instants;
  std::map<double, std::string> thread_names;
  // Request digests, keyed by the trace id the server stamps into each
  // span's args.trace at admission.
  std::map<std::string, TraceStats> traces;
  std::map<size_t, WaveStats> waves;
  size_t complete_events = 0;
  for (const obs::JsonValue& event : events->array_items) {
    std::string phase = event.StringOr("ph", "");
    std::string trace_id;
    if (const obs::JsonValue* args = event.Find("args")) {
      trace_id = args->StringOr("trace", "");
    }
    if (phase == "X") {
      ++complete_events;
      std::string name = event.StringOr("name", "?");
      std::string category = event.StringOr("cat", "?");
      double dur_us = event.NumberOr("dur", 0.0);
      sites[category + "\t" + NormalizeName(name)].push_back(dur_us);
      size_t wave = 0;
      std::string cell;
      if (category == "sched" && ParseCellWaveTag(name, &wave, &cell)) {
        WaveStats& stats = waves[wave];
        ++stats.cells;
        stats.cell_us += dur_us;
        if (dur_us > stats.slowest_cell_us) {
          stats.slowest_cell_us = dur_us;
          stats.slowest_cell = cell;
        }
      }
      if (!trace_id.empty()) {
        TraceStats& stats = traces[trace_id];
        ++stats.spans;
        stats.busy_us += dur_us;
        double ts = event.NumberOr("ts", 0.0);
        stats.first_ts_us = std::min(stats.first_ts_us, ts);
        stats.last_end_us = std::max(stats.last_end_us, ts + dur_us);
        if (dur_us > stats.slowest_us) {
          stats.slowest_us = dur_us;
          stats.slowest = name;
        }
      }
    } else if (phase == "i" || phase == "I") {
      ++instants[event.StringOr("name", "?")];
      if (!trace_id.empty()) ++traces[trace_id].instants;
    } else if (phase == "M" &&
               event.StringOr("name", "") == "thread_name") {
      const obs::JsonValue* args = event.Find("args");
      if (args != nullptr) {
        thread_names[event.NumberOr("tid", 0.0)] =
            args->StringOr("name", "?");
      }
    }
  }

  std::printf("%s: %zu complete events across %zu sites, %zu threads\n\n",
              path.c_str(), complete_events, sites.size(),
              thread_names.size());
  std::printf("%-8s %-36s %8s %12s %10s %10s %10s %10s\n", "category",
              "site", "count", "total_ms", "mean_ms", "p50_ms", "p95_ms",
              "max_ms");
  // Order rows by total duration, heaviest first.
  std::vector<std::pair<double, std::string>> order;
  for (auto& [key, durations] : sites) {
    std::sort(durations.begin(), durations.end());
    double total = 0.0;
    for (double d : durations) total += d;
    order.emplace_back(-total, key);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [neg_total, key] : order) {
    const std::vector<double>& durations = sites[key];
    size_t tab = key.find('\t');
    std::string category = key.substr(0, tab);
    std::string name = key.substr(tab + 1);
    if (!filter.empty() && category.find(filter) == std::string::npos &&
        name.find(filter) == std::string::npos) {
      continue;
    }
    double total_us = -neg_total;
    size_t count = durations.size();
    std::printf("%-8s %-36s %8zu %12.3f %10.3f %10.3f %10.3f %10.3f\n",
                category.c_str(), name.c_str(), count, total_us / 1e3,
                total_us / 1e3 / static_cast<double>(count),
                PercentileSorted(durations, 0.50) / 1e3,
                PercentileSorted(durations, 0.95) / 1e3,
                durations.back() / 1e3);
  }
  if (!waves.empty()) {
    std::printf("\nwave breakdown (sched):\n");
    std::printf("  %-6s %6s %12s  %s\n", "wave", "cells", "cell_ms",
                "slowest cell");
    for (const auto& [wave, stats] : waves) {
      std::printf("  w%-5zu %6zu %12.3f  %s (%.3f ms)\n", wave, stats.cells,
                  stats.cell_us / 1e3, stats.slowest_cell.c_str(),
                  stats.slowest_cell_us / 1e3);
    }
  }
  if (!instants.empty()) {
    std::printf("\ninstant events:\n");
    for (const auto& [name, count] : instants) {
      std::printf("  %-44s %8lld\n", name.c_str(),
                  static_cast<long long>(count));
    }
  }
  if (!thread_names.empty()) {
    std::printf("\nthreads:\n");
    for (const auto& [tid, name] : thread_names) {
      std::printf("  tid %-4.0f %s\n", tid, name.c_str());
    }
  }
  if (!traces.empty()) {
    std::printf("\nper-request digests (%zu traces):\n", traces.size());
    std::printf("  %-18s %6s %6s %10s %10s  %s\n", "trace", "spans",
                "inst", "wall_ms", "busy_ms", "slowest span");
    for (const auto& [trace_id, stats] : traces) {
      double wall_us =
          stats.spans > 0 ? stats.last_end_us - stats.first_ts_us : 0.0;
      std::printf("  %-18s %6zu %6zu %10.3f %10.3f  %s (%.3f ms)\n",
                  trace_id.c_str(), stats.spans, stats.instants,
                  wall_us / 1e3, stats.busy_us / 1e3,
                  stats.slowest.c_str(), stats.slowest_us / 1e3);
    }
  }
  return 0;
}

// ------------------------------------------------------------- metrics --

int DigestMetricsJsonl(const std::string& path) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                 text.status().ToString().c_str());
    return 1;
  }
  std::printf("%s:\n", path.c_str());
  size_t start = 0, line_no = 0;
  while (start < text->size()) {
    size_t end = text->find('\n', start);
    if (end == std::string::npos) end = text->size();
    std::string line = text->substr(start, end - start);
    start = end + 1;
    ++line_no;
    if (line.empty()) continue;
    obs::JsonValue value;
    std::string error;
    if (!obs::JsonValue::Parse(line, &value, &error)) {
      std::fprintf(stderr, "%s:%zu: invalid JSON: %s\n", path.c_str(),
                   line_no, error.c_str());
      return 1;
    }
    std::string name = value.StringOr("metric", "?");
    std::string type = value.StringOr("type", "?");
    double window_s = value.NumberOr("window_s", 0.0);
    if (type == "counter" || type == "gauge") {
      std::printf("  %-44s %-8s %12g\n", name.c_str(), type.c_str(),
                  value.NumberOr("value", 0.0));
    } else if (type == "histogram" && window_s > 0.0) {
      std::printf("  %-44s window   n=%.0f p50=%g p95=%g p99=%g (%gs)\n",
                  name.c_str(), value.NumberOr("count", 0.0),
                  value.NumberOr("p50", 0.0), value.NumberOr("p95", 0.0),
                  value.NumberOr("p99", 0.0), window_s);
    } else if (type == "histogram") {
      std::printf("  %-44s histo    n=%.0f sum=%g p50=%g p95=%g p99=%g\n",
                  name.c_str(), value.NumberOr("count", 0.0),
                  value.NumberOr("sum", 0.0), value.NumberOr("p50", 0.0),
                  value.NumberOr("p95", 0.0), value.NumberOr("p99", 0.0));
    } else {
      std::printf("  %-44s (unknown type %s)\n", name.c_str(), type.c_str());
    }
  }
  return 0;
}

// -------------------------------------------------------------- flight --

const char* FlightReasonName(uint32_t reason) {
  if (reason == obs::kFlightReasonExplicit) return "explicit";
  if (reason == obs::kFlightReasonDeadline) return "deadline";
  return "signal";  // reason carries the signal number
}

int DecodeFlight(const std::string& path) {
  obs::FlightDump dump;
  std::string error;
  if (!obs::DecodeFlightFile(path, &dump, &error)) {
    std::fprintf(stderr, "cannot decode %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("%s: version %u, reason %s", path.c_str(), dump.version,
              FlightReasonName(dump.reason));
  if (dump.reason != obs::kFlightReasonExplicit &&
      dump.reason != obs::kFlightReasonDeadline) {
    std::printf(" (%u)", dump.reason);
  }
  std::printf(", %zu sites, %zu threads, %zu events\n", dump.sites.size(),
              dump.threads.size(), dump.TotalEvents());

  std::map<std::string, uint64_t> by_site;
  for (const obs::FlightDump::Thread& thread : dump.threads) {
    std::printf("  tid %u: %zu events retained (%llu recorded)\n",
                thread.tid, thread.events.size(),
                static_cast<unsigned long long>(thread.recorded));
    for (const obs::FlightEntry& entry : thread.events) {
      ++by_site[dump.sites[entry.site]];
    }
  }
  std::printf("\nevents by site:\n");
  for (const auto& [site, count] : by_site) {
    std::printf("  %-44s %8llu\n", site.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("\nper-thread tails (newest last):\n");
  for (const obs::FlightDump::Thread& thread : dump.threads) {
    std::printf("  tid %u:\n", thread.tid);
    size_t begin =
        thread.events.size() > 16 ? thread.events.size() - 16 : 0;
    for (size_t i = begin; i < thread.events.size(); ++i) {
      const obs::FlightEntry& entry = thread.events[i];
      std::printf("    %12llu us  %-10s %-40s arg=%u\n",
                  static_cast<unsigned long long>(entry.ts_us),
                  obs::FlightEventTypeName(entry.type),
                  dump.sites[entry.site].c_str(), entry.arg);
    }
  }
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  if (mode == "trace") {
    std::string path;
    std::string filter;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < argc) {
        filter = argv[++i];
      } else if (path.empty() && argv[i][0] != '-') {
        path = argv[i];
      } else {
        return Usage();
      }
    }
    if (path.empty()) return Usage();
    return DigestTrace(path, filter);
  }
  if (mode == "metrics") {
    if (argc != 3) return Usage();
    return DigestMetricsJsonl(argv[2]);
  }
  if (mode == "flight") {
    if (argc != 3) return Usage();
    return DecodeFlight(argv[2]);
  }
  if (mode != "live") return Usage();

  std::string host = "127.0.0.1";
  int port = -1;
  double interval_s = 2.0;
  long ticks = -1;
  for (int i = 2; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = value("--host")) {
      host = v;
    } else if (const char* v = value("--port")) {
      port = std::atoi(v);
    } else if (const char* v = value("--interval")) {
      interval_s = std::atof(v);
    } else if (const char* v = value("--count")) {
      ticks = std::atol(v);
    } else {
      return Usage();
    }
  }
  if (port <= 0 || port > 65535) return Usage();
  if (!(interval_s > 0.0)) interval_s = 2.0;
  return RunLive(host, port, interval_s, ticks);
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
