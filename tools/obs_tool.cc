// Offline digests of the artifacts the telemetry plane leaves on disk
// (DESIGN.md §14):
//   obs_tool trace <trace.json> [--filter S]  # FAIRCLEAN_TRACE output
//   obs_tool metrics <metrics.jsonl>          # FAIRCLEAN_METRICS output
// The trace digest aggregates complete events into a per-site latency
// table (count, total, mean, p50, p95, max). Span names are normalized by
// collapsing every digit run to '#', so per-item spans ("tune fold 3
// log-reg", "slot adult/missing_values/knn r12") fold into one row per call
// site; instant events are tallied by name. Scheduler cell spans are
// wave-tagged ("cell w3 adult/missing_values/knn") and fold into a
// per-wave breakdown. `--filter` narrows the site table to
// categories/sites containing S (e.g. `--filter sched`).

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/safe_io.h"
#include "obs/json_lite.h"

namespace {

using namespace fairclean;  // NOLINT

int Usage() {
  std::fprintf(stderr,
               "usage: obs_tool trace <trace.json> [--filter S]\n"
               "       obs_tool metrics <metrics.jsonl>\n");
  return 2;
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
  std::map<size_t, WaveStats> waves;
  size_t complete_events = 0;
  for (const obs::JsonValue& event : events->array_items) {
    std::string phase = event.StringOr("ph", "");
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
    } else if (phase == "i" || phase == "I") {
      ++instants[event.StringOr("name", "?")];
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
    if (type == "counter" || type == "gauge") {
      std::printf("  %-44s %-8s %12g\n", name.c_str(), type.c_str(),
                  value.NumberOr("value", 0.0));
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
  return Usage();
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
