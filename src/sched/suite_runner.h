#ifndef FAIRCLEAN_SCHED_SUITE_RUNNER_H_
#define FAIRCLEAN_SCHED_SUITE_RUNNER_H_

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/disparity.h"
#include "core/runner.h"
#include "datasets/generator.h"
#include "exec/study_driver.h"
#include "obs/metrics.h"
#include "sched/artifact_store.h"
#include "sched/experiment_graph.h"
#include "sched/shard.h"
#include "sched/suite_spec.h"
#include "store/blob_store.h"

namespace fairclean {
namespace sched {

/// EX_TEMPFAIL: the run stopped at its time budget with resumable state.
constexpr int kExitResumable = 75;

/// Suite-wide options: study scale, the driver's fault-tolerance knobs, and
/// the suite-level fan-out width. Resolved ONCE (TrySuiteOptionsFromEnv) and
/// threaded through every cell, so a mid-run environment change cannot
/// split one suite across inconsistent knobs.
struct SuiteOptions {
  StudyOptions study;
  /// Directory for cached experiment records ("" disables caching).
  std::string cache_dir = "fairclean_cache";
  /// Extra attempts per degenerate repeat before it is skipped.
  size_t max_retries = 2;
  /// Soft wall-clock budget in seconds for the whole suite (<= 0:
  /// unlimited); on exhaustion the suite checkpoints and reports a
  /// resumable failure (exit 75).
  double time_budget_s = 0.0;
  /// Worker threads for the suite-level experiment fan-out (0:
  /// FAIRCLEAN_THREADS, whose own default is hardware_concurrency; 1:
  /// sequential). Results are byte-identical across widths.
  size_t threads = 0;
  /// Where RunSuite writes the merged JSON report ("" keeps it in memory
  /// only; see SuiteScheduler::report_json()).
  std::string report_path;
};

/// The suite-scale defaults (sample 3500, 16 repeats, 3 folds, holdout
/// 0.3, seed 42) overridable via FAIRCLEAN_SAMPLE / FAIRCLEAN_REPEATS /
/// FAIRCLEAN_FOLDS / FAIRCLEAN_SEED / FAIRCLEAN_CACHE_DIR /
/// FAIRCLEAN_MAX_RETRIES / FAIRCLEAN_TIME_BUDGET_S / FAIRCLEAN_THREADS /
/// FAIRCLEAN_SUITE_REPORT.
/// Reads the environment exactly once, at the call. Count and budget knobs
/// parse strictly (GetEnvCount / GetEnvBudgetSeconds): trailing garbage,
/// NaN/inf, or a negative value is an InvalidArgument instead of a silent
/// fallback to the default.
Result<SuiteOptions> TrySuiteOptionsFromEnv();

/// TrySuiteOptionsFromEnv for the grid benchmark's traced replay
/// (gridbench/grid_trace.cc), which has no error channel: a malformed knob
/// aborts the process with the parse error. run_suite and advisor_server
/// call TrySuiteOptionsFromEnv and exit 2 instead.
SuiteOptions SuiteOptionsFromEnv();

/// One produced experiment-cell artifact: the driver result plus the byte
/// identity of its persisted cache record (sha256 of the exact file bytes,
/// or of the bytes SaveToFile would write when caching is disabled).
struct CellArtifact {
  CleaningExperimentResult result;
  /// Cache file basename ("" when caching is disabled). Basename, not
  /// path, so reports are identical across cache directories.
  std::string cache_file;
  std::string sha256;
  /// Mass-run classification (persisted as a class: record next to the
  /// cache record, read back on cache hits — so fresh, warm and resumed
  /// runs report the same class).
  CellClass cell_class = CellClass::kPass;
};

/// One per-dataset disparity analysis (Fig. 1 / Fig. 2 panel).
struct DisparityArtifact {
  std::vector<DisparityRow> rows;
};

/// Scope results keyed "<dataset>/<model>", shared with the artifact store.
using ScopeResults = std::map<std::string, std::shared_ptr<const CellArtifact>>;

/// The dataset artifact `name` from `artifacts`: one store request whose
/// producer only resolves the static spec (NotFound for an unknown name).
/// Rows are generated on the handle's first Rows call and counted on
/// `generated` ("sched.datasets_generated").
Result<std::shared_ptr<const DatasetHandle>> DatasetArtifact(
    ArtifactStore* artifacts, const std::string& name, uint64_t study_seed,
    obs::Counter* generated, const ArtifactStore::Deadline& deadline = {});

/// Produces one cell through a fresh StudyDriver, shared by the suite
/// scheduler and the advisor service. The dataset's rows are requested
/// (bounded by options.deadline) only if a repeat slot must be computed,
/// and the artifact's sha256 hashes the record bytes the driver verified or
/// wrote, so a cache hit reads its record once. `diagnostics` receives the
/// driver's counters whether or not the run succeeded. The cell class is
/// left at kPass for the caller to set.
Result<CellArtifact> ProduceCellArtifact(
    const DatasetHandle& dataset, const CellKey& cell,
    const exec::StudyDriverOptions& options,
    exec::RunDiagnostics* diagnostics);

/// Aggregates a scope's results into the paper's 3x3 impact table for one
/// (grouping, fairness metric): every (pair-or-dataset, method, model)
/// configuration contributes one cell. `alpha` is the base level; it is
/// Bonferroni-adjusted by the scope's cleaning-method count.
Result<ImpactTable> AggregateImpactTable(const ScopeResults& results,
                                         const StudyScope& scope,
                                         bool intersectional,
                                         FairnessMetric metric, double alpha);

/// The Section VI deep-dive counts, accumulated over the three error-type
/// scopes.
struct DeepDive {
  struct Case {
    bool non_worsening = false;
    bool improving = false;
    bool both_improving = false;
  };
  /// "<metric>/<dataset>/<attribute>/<error type>" -> what its cleaning
  /// configurations achieve.
  std::map<std::string, Case> cases;
  /// Categorical imputation -> fairness improvements (missing values;
  /// every imputation of the scope, zero counts included).
  std::map<std::string, int64_t> categorical_wins;
  /// Outlier detector -> {negative fairness impacts, configurations}.
  std::map<std::string, std::pair<int64_t, int64_t>> detector_negative;
  /// "<dataset>/<model>" -> mean dirty-baseline accuracy, one per scope.
  std::map<std::string, std::vector<double>> dirty_accuracy;
};

/// Folds one scope's cells into `deep_dive`: every cell's mean dirty
/// accuracy, and the impact test of every (model, single pair, cleaning
/// method, PP/EO) configuration, the tests Table XIV tallies. `alpha` is
/// the base level; it is Bonferroni-adjusted by the scope's cleaning-method
/// count. NotFound for a missing cell or method series; otherwise the first
/// failed test.
Status FoldDeepDive(const ScopeResults& results, const StudyScope& scope,
                    double alpha, DeepDive* deep_dive);

/// Prints measured-vs-paper tables side by side plus a qualitative shape
/// check (dominant-row agreement).
void PrintTableWithReference(const ImpactTable& measured,
                             const PaperTable& reference,
                             const std::string& title);

/// Relative cost rank of one cell for longest-processing-time-first (LPT)
/// ordering: the scheduler submits a wave's fan-out in descending rank so
/// the expensive cells start first and the cheap ones fill the tail,
/// tightening the wave's makespan. Pure scheduling — results land in
/// id-indexed slots and failures are still reported in deterministic node
/// order, so the bytes cannot change. GBDT tuning is the longest pole, then
/// kNN; log-reg and unknown models are cheap.
int CellCostRank(const CellKey& cell);

/// Runs the paper grid as one DAG: dataset and experiment-cell nodes are
/// deduplicated across units and produced exactly once through a
/// content-addressed ArtifactStore, ready nodes fan out across a
/// suite-level ThreadPool (each cell runs a sequential StudyDriver, so
/// parallelism is across experiments), and aggregation nodes fold cell
/// artifacts into the paper's tables and figures.
///
/// Identity contract (DESIGN.md Section 9): each cell's cache record is
/// byte-identical to what a standalone StudyDriver produces, at any
/// thread width, and the merged report is byte-identical between
/// sequential, parallel, and killed-and-resumed runs.
///
/// RunSuite must be called from one thread at a time; internal fan-out is
/// the scheduler's own concern.
class SuiteScheduler {
 public:
  explicit SuiteScheduler(SuiteOptions options);

  const SuiteOptions& options() const { return options_; }
  /// Resolved suite fan-out width.
  size_t width() const { return width_; }
  ArtifactStore& artifacts() { return artifacts_; }

  /// Runs every unit the filter selects, prints each unit's heading and
  /// body, and assembles the merged JSON report (written to
  /// options.report_path when set).
  Status RunSuite(const SuiteSpec& spec, const SuiteFilter& filter);

  /// Invoked after every successful slice write of a cell driver (the
  /// driver's checkpoint_hook). The suite soak test uses it as a
  /// deterministic mid-cell crash point (raise SIGKILL after the first
  /// durable slice).
  void set_cell_checkpoint_hook(std::function<void()> hook) {
    cell_checkpoint_hook_ = std::move(hook);
  }

  /// Shared dataset / cell / disparity artifacts (produced on first use).
  /// A dataset artifact is a lazy handle: its rows are generated only when
  /// a cell slot or figure panel must be computed. With a cache dir, a
  /// disparity panel is read from its figure record (FigureRecordKey) and
  /// only computed, then persisted, on a miss.
  Result<std::shared_ptr<const DatasetHandle>> Dataset(
      const std::string& name);
  Result<std::shared_ptr<const CellArtifact>> Cell(const CellKey& cell);
  Result<std::shared_ptr<const DisparityArtifact>> Disparity(
      const std::string& dataset, bool intersectional);

  /// Sum of every cell driver's diagnostics.
  exec::RunDiagnostics AggregateDiagnostics() const;

  /// Prints the aggregate diagnostics (and, at info level, the process
  /// metric instruments) to stdout: the run summary.
  void PrintRunSummary() const;

  /// Reports a failed run to stderr (message, diagnostics, resume hint on
  /// deadline) and returns the process exit code: kExitResumable for a
  /// resumable deadline, 1 otherwise.
  int ReportFailure(const Status& status) const;

  /// The merged report of the last successful RunSuite (deterministic
  /// bytes: no wall times, no thread counts, artifact counts derived
  /// structurally from the graph rather than from runtime counters).
  const std::string& report_json() const { return report_json_; }

  double ElapsedSeconds() const;

  static int ExitCode(const Status& status) {
    if (status.ok()) return 0;
    return status.code() == StatusCode::kDeadlineExceeded ? kExitResumable
                                                          : 1;
  }

 private:
  struct FigureValue {
    bool skipped = false;  ///< dataset has no intersectional definition
    std::shared_ptr<const DisparityArtifact> rows;
  };
  struct TableValue {
    bool skipped = false;  ///< filter narrowed the unit: cannot aggregate
    ImpactTable table;
  };
  struct ModelTableValue {
    struct Tally {
      int64_t total = 0;
      int64_t fairness_worse = 0;
      int64_t fairness_better = 0;
      int64_t both_better = 0;
    };
    bool skipped = false;
    std::map<std::string, Tally> tallies;
  };
  struct DeepDiveValue {
    bool skipped = false;
    DeepDive counts;
  };

  /// Driver options for one cell: the suite options with the time budget
  /// reduced to what remains of the suite budget.
  /// Creates the cache dir when caching is on. DeadlineExceeded when the
  /// suite budget is already exhausted.
  Result<exec::StudyDriverOptions> CellDriverOptions() const;

  /// The artifact store under cache_dir, creating the directory first.
  /// Never called at construction, so `run_suite --list` leaves no cache
  /// dir behind.
  const store::FlatFileStore& Store() const;

  Result<CellArtifact> ProduceCell(const CellKey& cell);

  /// Runs AnalyzeDisparities for one figure panel on its historical rng
  /// stream.
  Result<DisparityArtifact> ComputeDisparity(const std::string& dataset,
                                             bool intersectional);
  /// The panel's persisted record, or nullopt on a miss. A damaged record
  /// is quarantined; a failed read (the "cache_read" probe included) is a
  /// miss that leaves the record in place. Either way the caller
  /// recomputes and rewrites it.
  std::optional<DisparityArtifact> LoadFigureRecord(const std::string& key,
                                                    const std::string& dataset,
                                                    bool intersectional);

  void Accumulate(const exec::RunDiagnostics& diagnostics);

  /// Classification + class-record persistence for one freshly produced
  /// (non-cache-hit) cell; reads the sticky record back on cache hits.
  CellClass ClassifyProducedCell(const CellKey& cell,
                                 const exec::RunDiagnostics& diag,
                                 const store::FlatFileStore* blob,
                                 const std::string& cache_key);

  /// Executes the graph wave by wave: dataset/cell/figure nodes fan out
  /// across the pool, aggregation nodes run inline; node results land in
  /// node_values_. On failure returns the failed node with the smallest id
  /// (deterministic across widths).
  Status ExecuteGraph(const SuiteSpec& spec, const ExperimentGraph& graph);
  /// Runs the nodes `ids` of wave `wave_index` across the pool, longest
  /// first (CellCostRank), and returns the failure of the smallest node id.
  Status FanOut(const SuiteSpec& spec, const ExperimentGraph& graph,
                size_t wave_index, std::vector<size_t> ids);
  Status RunNode(const SuiteSpec& spec, const ExperimentGraph& graph,
                 size_t id);
  bool Narrowed(const ExperimentGraph& graph, size_t unit_index) const;
  /// Cell artifacts among `node`'s deps with the given error type, keyed
  /// "<dataset>/<model>".
  ScopeResults ScopeFromDeps(const ExperimentGraph& graph,
                             const GraphNode& node,
                             const std::string& error_type) const;

  void PrintUnitHeading(const SuiteUnit& unit) const;
  Status RenderUnitBody(const SuiteSpec& spec, const ExperimentGraph& graph,
                        size_t unit_index) const;
  /// Prints the unit's "summary vs paper" block over the figure nodes of
  /// `unit_index` only — in a full-suite graph both fig1's and fig2's
  /// nodes coexist, and mixing them would corrupt the counts.
  void RenderFigureSummary(const SuiteUnit& unit, const ExperimentGraph& graph,
                           size_t unit_index) const;

  std::string BuildReportJson(const SuiteSpec& spec,
                              const ExperimentGraph& graph,
                              const SuiteFilter& filter) const;

  SuiteOptions options_;
  size_t width_ = 1;
  /// Scoped registry: suite counters forward to MetricsRegistry::Global()
  /// while staying separable for perf reporting.
  obs::MetricsRegistry metrics_;
  ArtifactStore artifacts_;
  /// Figure panels served from / written to the on-disk store.
  obs::Counter* figure_records_loaded_;
  obs::Counter* figure_records_written_;
  /// Dataset row generations that actually ran (cache hits run none).
  obs::Counter* datasets_generated_;
  /// Wave index of the fan-out currently executing; kNoWave outside one.
  /// Tags cell spans "cell w<k> ..." so trace digests can break cell time
  /// down per wave. Written only on the scheduling thread between
  /// fan-outs.
  static constexpr size_t kNoWave = static_cast<size_t>(-1);
  size_t current_wave_ = kNoWave;
  std::unique_ptr<ThreadPool> pool_;  ///< null when width_ == 1
  std::chrono::steady_clock::time_point start_;

  mutable std::mutex diag_mutex_;
  exec::RunDiagnostics total_;

  store::FlatFileStore store_;

  std::function<void()> cell_checkpoint_hook_;

  /// Node results of the last ExecuteGraph, indexed by node id. Holds
  /// CellArtifact / DatasetHandle / FigureValue / TableValue /
  /// ModelTableValue / DeepDiveValue per the node kind.
  std::vector<std::shared_ptr<const void>> node_values_;
  std::string report_json_;
};

}  // namespace sched
}  // namespace fairclean

#endif  // FAIRCLEAN_SCHED_SUITE_RUNNER_H_
