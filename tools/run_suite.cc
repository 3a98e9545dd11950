// Runs the paper's evaluation (Figures 1-2, Tables II-XIV and the Section
// VI deep dive) as one DAG through the suite scheduler: shared upstream
// artifacts (generated datasets, experiment-cell records, detector
// outputs) are produced once and reused across units, ready cells fan out
// across FAIRCLEAN_THREADS workers, each selected unit prints its heading
// and its measured-vs-paper body, and one merged JSON report is written at
// the end. This is the one way to run the paper: `--filter <unit>` prints
// a single artifact.
//
// Usage: run_suite [--filter a,b,c] [--report path] [--list]
//
//   --filter  comma-separated substring filter over unit names and cell
//             ids: "tables_missing" runs one unit (units: fig1, fig2,
//             tables_missing, tables_outliers, tables_mislabels,
//             table_models, deepdive), "german" runs every german cell,
//             "smoke" runs the CI smoke subset. Empty: every default unit.
//   --report  merged report path (default: FAIRCLEAN_SUITE_REPORT or
//             fairclean_suite_report.json).
//   --list    print the selected units and cells, then exit.
//
// The run is resumable: the per-cell StudyDriver cache and repeat slices
// survive a kill, and re-running the same command resumes mid-suite. Exit
// codes: 0 success, 75 (EX_TEMPFAIL) time budget exhausted with resumable
// state, 2 usage error (a bad flag or a malformed knob, reported before
// any work), 1 failure. Scale knobs (FAIRCLEAN_SAMPLE / FAIRCLEAN_REPEATS /
// FAIRCLEAN_FOLDS / FAIRCLEAN_SEED / ...) are resolved once at startup so
// a mid-run environment change cannot split the suite.

#include <cstdio>
#include <cstring>
#include <string>

#include "common/fault_injection.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "sched/experiment_graph.h"
#include "sched/suite_runner.h"
#include "sched/suite_spec.h"

namespace {

using namespace fairclean;         // NOLINT
using namespace fairclean::sched;  // NOLINT

int ListSuite(const SuiteSpec& spec, const SuiteFilter& filter) {
  ExperimentGraph graph = ExperimentGraph::Build(spec, filter);
  std::printf("suite %s: %zu units selected, %zu graph nodes\n",
              spec.name.c_str(), graph.selected_units().size(),
              graph.nodes().size());
  for (const GraphNode& node : graph.nodes()) {
    std::printf("  [%s] %s\n", NodeKindName(node.kind), node.label.c_str());
  }
  return 0;
}

int Run(int argc, char** argv) {
  obs::InitLogLevelFromEnv(obs::LogLevel::kInfo);
  obs::InitTraceFromEnv();

  std::string filter_text;
  std::string report_path;
  bool list_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < argc) {
      filter_text = argv[++i];
    } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: run_suite [--filter a,b,c] [--report path] "
                   "[--list]\n");
      return 2;
    }
  }

  Status faults = FaultInjector::Global().ConfigureFromEnv();
  if (!faults.ok()) {
    std::fprintf(stderr, "%s\n", faults.ToString().c_str());
    return 2;
  }

  Result<SuiteOptions> resolved = TrySuiteOptionsFromEnv();
  if (!resolved.ok()) {
    std::fprintf(stderr, "%s\n", resolved.status().ToString().c_str());
    return 2;
  }
  SuiteOptions options = *std::move(resolved);
  if (!report_path.empty()) options.report_path = report_path;
  if (options.report_path.empty()) {
    options.report_path = "fairclean_suite_report.json";
  }

  SuiteSpec spec = PaperSuite();
  SuiteFilter filter = SuiteFilter::Parse(filter_text);
  if (list_only) return ListSuite(spec, filter);

  SuiteScheduler scheduler(options);

  Status status = scheduler.RunSuite(spec, filter);
  if (!status.ok()) return scheduler.ReportFailure(status);
  scheduler.PrintRunSummary();
  std::printf(
      "suite report: %s (artifacts produced=%llu reused=%llu)\n",
      options.report_path.c_str(),
      static_cast<unsigned long long>(scheduler.artifact_counts().produced),
      static_cast<unsigned long long>(scheduler.artifact_counts().reused));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
