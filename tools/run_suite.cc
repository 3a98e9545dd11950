// Runs the whole paper grid (Figures 1-2, Tables II-XIV) as one DAG
// through the suite scheduler: shared upstream artifacts (generated
// datasets, experiment-cell records, detector outputs) are produced once
// and reused across units, ready cells fan out across FAIRCLEAN_THREADS
// workers, and one merged JSON report with per-table paper comparisons is
// written at the end.
//
// Usage: run_suite [--filter a,b,c] [--report path] [--list]
//                  [--shard-claim i/N]
//
//   --filter  comma-separated substring filter over unit names and cell
//             ids: "tables_missing" runs one unit, "german" runs every
//             german cell, "smoke" runs the CI smoke subset. Empty: every
//             default unit.
//   --report  merged report path (default: FAIRCLEAN_SUITE_REPORT or
//             fairclean_suite_report.json).
//   --list    print the selected units and cells, then exit.
//   --shard-claim i/N  N cooperating processes work-steal cells through
//             lease records under <cache_dir>/claims (lease length:
//             FAIRCLEAN_SHARD_LEASE_S, refreshed at every slice write;
//             expired or dead owners are stolen from and their finished
//             repeat slices reused). Each writes a partial report
//             "<report>.shard<i>of<N>"; the last finishing shard
//             validates them against the shared cache and assembles the
//             merged report, byte-identical to a single-process run.
//
// The run is resumable: the per-cell StudyDriver cache and repeat slices
// survive a kill, and re-running the same command resumes mid-suite. Exit
// codes: 0 success, 75 (EX_TEMPFAIL) time budget exhausted with resumable
// state, 1 failure. Scale knobs are the bench ones (FAIRCLEAN_SAMPLE /
// FAIRCLEAN_REPEATS / FAIRCLEAN_FOLDS / FAIRCLEAN_SEED / ...), resolved
// once at startup so a mid-run environment change cannot split the suite.

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
  ShardSpec shard;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < argc) {
      filter_text = argv[++i];
    } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list_only = true;
    } else if (std::strcmp(argv[i], "--shard-claim") == 0 && i + 1 < argc) {
      Result<ShardSpec> parsed = ParseShardSpec(ShardMode::kClaim,
                                                argv[++i]);
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad --shard-claim: %s\n",
                     parsed.status().ToString().c_str());
        return 1;
      }
      shard = *parsed;
    } else {
      std::fprintf(stderr,
                   "usage: run_suite [--filter a,b,c] [--report path] "
                   "[--list] [--shard-claim i/N]\n");
      return 1;
    }
  }

  Status faults = FaultInjector::Global().ConfigureFromEnv();
  if (!faults.ok()) {
    std::fprintf(stderr, "bad FAIRCLEAN_FAULTS: %s\n",
                 faults.ToString().c_str());
    return 1;
  }

  SuiteOptions options = SuiteOptionsFromEnv();
  if (!report_path.empty()) options.report_path = report_path;
  if (options.report_path.empty()) {
    options.report_path = "fairclean_suite_report.json";
  }
  options.shard = shard;

  SuiteSpec spec = PaperSuite();
  SuiteFilter filter = SuiteFilter::Parse(filter_text);
  if (list_only) return ListSuite(spec, filter);

  SuiteScheduler scheduler(options);

  if (shard.active()) {
    std::printf(
        "== fairclean suite shard: %s %s (%s mode)%s%s ==\n"
        "scale: sample=%zu repeats=%zu folds=%zu seed=%llu threads=%zu\n\n",
        spec.name.c_str(), shard.Label().c_str(),
        ShardModeName(shard.mode), filter.Empty() ? "" : ", filter ",
        filter.Empty() ? "" : filter_text.c_str(),
        options.study.sample_size, options.study.num_repeats,
        options.study.cv_folds,
        static_cast<unsigned long long>(options.study.seed),
        scheduler.width());
    Status status = scheduler.RunSuiteShard(spec, filter);
    if (!status.ok()) return scheduler.ReportFailure(status);
    scheduler.PrintRunSummary();
    std::printf("shard partial report: %s\n",
                SuiteScheduler::PartialReportPath(options.report_path, shard)
                    .c_str());
    return 0;
  }

  Status status = scheduler.RunSuite(spec, filter);
  if (!status.ok()) return scheduler.ReportFailure(status);
  scheduler.PrintRunSummary();
  std::printf("suite report: %s (artifacts produced=%llu reused=%llu)\n",
              options.report_path.c_str(),
              static_cast<unsigned long long>(scheduler.artifacts().produced()),
              static_cast<unsigned long long>(scheduler.artifacts().reused()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
