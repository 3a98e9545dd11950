#include "bench/bench_util.h"

#include <cstdio>

#include "common/fault_injection.h"
#include "common/safe_io.h"
#include "common/strings.h"
#include "obs/json_lite.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace fairclean {
namespace bench {

BenchOptions BenchOptionsFromEnv() {
  // Benches historically narrated cache hits / resumes / retries; keep that
  // by defaulting their log level to info (FAIRCLEAN_LOG still overrides).
  obs::InitLogLevelFromEnv(obs::LogLevel::kInfo);
  // Activate FAIRCLEAN_TRACE before the first dataset/span of the bench.
  obs::InitTraceFromEnv();
  return sched::SuiteOptionsFromEnv();
}

Result<GeneratedDataset> BenchDataset(const std::string& name,
                                      const BenchOptions& options) {
  return sched::MakeSuiteDataset(name, options.study.seed);
}

int RunTableBench(const std::string& unit_name) {
  BenchOptions options = BenchOptionsFromEnv();
  Status faults = FaultInjector::Global().ConfigureFromEnv();
  if (!faults.ok()) {
    std::fprintf(stderr, "bad FAIRCLEAN_FAULTS: %s\n",
                 faults.ToString().c_str());
    return 1;
  }

  sched::SuiteSpec spec = sched::PaperSuite();
  const sched::SuiteUnit* unit = nullptr;
  for (const sched::SuiteUnit& candidate : spec.units) {
    if (candidate.name == unit_name) unit = &candidate;
  }
  if (unit == nullptr) {
    std::fprintf(stderr, "unknown suite unit: %s\n", unit_name.c_str());
    return 1;
  }

  sched::SuiteScheduler scheduler(options);
  Status status = scheduler.RunUnit(*unit);
  if (!status.ok()) return scheduler.ReportFailure(status);
  // Figure benches never printed run diagnostics; table benches always did.
  if (unit->kind != sched::SuiteUnit::Kind::kFigure) {
    scheduler.PrintRunSummary();
  }
  return 0;
}

Status WriteBenchPerfJson(const std::string& path,
                          const std::map<std::string, double>& op_seconds) {
  std::string body = "{\"ops\":{";
  bool first = true;
  for (const auto& [name, seconds] : op_seconds) {
    body += StrFormat("%s\"%s\":%.9g", first ? "" : ",",
                      obs::JsonEscape(name).c_str(), seconds);
    first = false;
  }
  body += "}}\n";
  return WriteFileAtomic(path, body);
}

}  // namespace bench
}  // namespace fairclean
