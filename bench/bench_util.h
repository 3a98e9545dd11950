#ifndef FAIRCLEAN_BENCH_BENCH_UTIL_H_
#define FAIRCLEAN_BENCH_BENCH_UTIL_H_

#include <map>
#include <string>

#include "core/runner.h"
#include "datasets/generator.h"
#include "exec/study_driver.h"
#include "sched/suite_runner.h"
#include "sched/suite_spec.h"

namespace fairclean {
namespace bench {

// The benches are thin views over the suite scheduler (src/sched): the
// experiment scopes, paper reference tables, aggregation, and run loop all
// live there now, shared with tools/run_suite. These aliases keep the
// bench-facing names stable.
using sched::MislabelScope;
using sched::MissingScope;
using sched::OutlierScope;
using sched::PairSpec;
using sched::PaperTable;
using sched::StudyScope;

using sched::AggregateImpactTable;
using sched::PrintTableWithReference;
using sched::ScopeResults;

/// Benchmark-wide options are the suite scheduler's options.
using BenchOptions = sched::SuiteOptions;

/// Bench-scale options from the environment (sample 3500, 16 repeats, ...),
/// resolved exactly once. Also initializes the log level (benches default
/// to info, the historical verbose output) and the FAIRCLEAN_TRACE sink.
BenchOptions BenchOptionsFromEnv();

/// Generates the named dataset with the canonical suite seed derivation
/// (deterministic across bench binaries so cached results stay valid).
Result<GeneratedDataset> BenchDataset(const std::string& name,
                                      const BenchOptions& options);

/// Runs one named unit of the paper suite (PaperSuite()) through a suite
/// scheduler: "tables_missing" / "tables_outliers" / "tables_mislabels" /
/// "table_models" / "fig1" / "fig2". Prints the unit's historical output
/// (heading, measured-vs-paper tables or disparity panels, and — for table
/// units — the run diagnostics). Returns a process exit code: 0 on
/// success, 1 on failure, 75 (EX_TEMPFAIL) when the FAIRCLEAN_TIME_BUDGET_S
/// budget was exhausted — completed work is checkpointed and re-running
/// resumes it.
int RunTableBench(const std::string& unit_name);

/// Writes machine-readable micro-benchmark results as JSON:
///   {"ops":{"<op>":<seconds>,...}}
/// Atomic write via the checksummed-IO layer's temp-file+rename path.
Status WriteBenchPerfJson(const std::string& path,
                          const std::map<std::string, double>& op_seconds);

}  // namespace bench
}  // namespace fairclean

#endif  // FAIRCLEAN_BENCH_BENCH_UTIL_H_
