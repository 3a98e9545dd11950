#ifndef FAIRCLEAN_EXEC_STUDY_DRIVER_H_
#define FAIRCLEAN_EXEC_STUDY_DRIVER_H_

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/thread_pool.h"
#include "core/runner.h"
#include "datasets/generator.h"
#include "obs/metrics.h"
#include "store/blob_store.h"

namespace fairclean {
namespace exec {

/// Knobs of the fault-tolerant study execution layer.
struct StudyDriverOptions {
  StudyOptions study;
  /// Directory for cached experiment records and repeat journals ("" runs
  /// fully in memory: no cache, no checkpoints).
  std::string cache_dir;
  /// Extra attempts per degenerate repeat. The first retry replays the
  /// identical seed (recovering transient faults without changing any
  /// score); later retries derive a fresh deterministic seed. A repeat that
  /// stays degenerate after all retries is skipped.
  size_t max_retries = 2;
  /// Soft wall-clock budget in seconds measured from driver construction
  /// (<= 0: unlimited). When exceeded, the driver checkpoints and returns
  /// DeadlineExceeded at the next repeat boundary instead of being killed
  /// mid-write; re-running resumes from the journal.
  double time_budget_s = 0.0;
  /// Absolute per-request deadline (steady clock). Where time_budget_s is
  /// process-scoped (measured from driver construction), the deadline is
  /// stamped by a caller that existed before this driver — the serving
  /// layer marks it at request admission, so queue wait counts against it.
  /// Both limits are enforced; whichever trips first checkpoints the
  /// journal and returns DeadlineExceeded at the next repeat boundary.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Worker threads the driver fans repeat slices out across. 0 resolves
  /// FAIRCLEAN_THREADS (whose own default is hardware_concurrency); 1 runs
  /// the historical strictly-sequential path. Results are byte-identical
  /// across thread counts (see DESIGN.md, threading model).
  size_t threads = 0;
  /// Invoked on the driver thread after each successful journal checkpoint
  /// write (never on failure). The shard claim layer refreshes its cell
  /// lease here, so a lease outlives any cell whose repeats keep making
  /// progress; tests also use it as a deterministic mid-cell crash point.
  std::function<void()> checkpoint_hook;
};

/// Structured counters describing how a driver run degraded (or didn't):
/// cache reuse, journal resumes, retries, skips, quarantined files, and
/// wall time per stage. Printed by the table benches.
///
/// Since the observability rework this is a point-in-time snapshot
/// assembled from the driver's metrics registry (see
/// StudyDriver::diagnostics()); the counters live as named instruments
/// ("driver.retries", "driver.stage_wall_s.compute", ...) that also feed
/// the process-wide FAIRCLEAN_METRICS export.
struct RunDiagnostics {
  size_t experiments = 0;        ///< RunOrLoad calls served.
  size_t cache_hits = 0;         ///< served entirely from the result cache
  size_t journal_resumes = 0;    ///< experiments resumed from a journal
  size_t repeats_resumed = 0;    ///< repeats recovered from journals
  size_t repeats_run = 0;        ///< repeats computed in this process
  size_t retries = 0;            ///< extra attempts on degenerate repeats
  size_t skips = 0;              ///< repeats abandoned after all retries
  size_t corrupt_quarantined = 0;///< cache/journal files moved to .corrupt
  size_t checkpoints = 0;        ///< journal snapshots written
  bool budget_exhausted = false; ///< stopped by FAIRCLEAN_TIME_BUDGET_S
  size_t threads = 1;            ///< worker threads of the repeat fan-out
  /// Wall-clock seconds per stage as seen by the driver thread:
  /// "cache_load", "compute" (time spent waiting on slices), "checkpoint",
  /// "finalize".
  std::map<std::string, double> stage_seconds;
  /// CPU seconds per stage summed across workers; under parallel execution
  /// "compute" exceeds its wall-clock counterpart by roughly the achieved
  /// speedup factor.
  std::map<std::string, double> stage_cpu_seconds;

  /// Multi-line human-readable summary.
  std::string Format() const;
};

/// Fault-tolerant wrapper around RunCleaningExperiment.
///
/// Where the plain runner computes all repeats in one shot and dies (or
/// throws away hours of work) on any failure, the driver:
///  - serves completed experiments from a checksummed result cache,
///    quarantining corrupt/truncated files to <name>.corrupt and
///    recomputing instead of crashing or silently reusing garbage;
///  - journals every completed repeat with atomic temp-file+rename writes,
///    so an interrupted experiment resumes at the repeat (not experiment)
///    boundary and reproduces byte-identical results;
///  - retries degenerate repeats (non-finite score, single-class fold,
///    empty group slice) with deterministic reseeding, then skips them;
///  - honors a soft time budget, exiting cleanly with resumable state;
///  - fans repeat slices out across a fixed thread pool (options.threads /
///    FAIRCLEAN_THREADS) while merging them on the calling thread in repeat
///    order, so results, caches, and journals are byte-identical to the
///    sequential path.
///
/// One driver instance is meant to span a whole bench invocation so the
/// time budget and diagnostics cover the full scope. RunOrLoad must be
/// called from one thread at a time (the internal fan-out is the driver's
/// own concern); diagnostics are only mutated on that calling thread.
class StudyDriver {
 public:
  explicit StudyDriver(StudyDriverOptions options);

  /// Runs (or loads, or resumes) the cleaning experiment for one
  /// (dataset, error type, model family). On DeadlineExceeded the
  /// completed repeats are journaled and a re-run resumes them.
  Result<CleaningExperimentResult> RunOrLoad(const GeneratedDataset& dataset,
                                             const std::string& error_type,
                                             const std::string& model);

  /// Snapshot of the driver's metric instruments in the legacy
  /// RunDiagnostics shape. Counters are shared with the global metrics
  /// registry, so a FAIRCLEAN_METRICS export sees the same numbers.
  RunDiagnostics diagnostics() const;

  /// Store key (cache-file basename) for one configuration — the unit of
  /// addressing shared by every backend.
  static std::string CacheKey(const StudyDriverOptions& options,
                              const std::string& dataset,
                              const std::string& error_type,
                              const std::string& model);

  /// Journal key used while a configuration is in flight.
  static std::string JournalKey(const StudyDriverOptions& options,
                                const std::string& dataset,
                                const std::string& error_type,
                                const std::string& model);

  /// Cache file for one configuration under the flat backend (same layout
  /// the benches always used, so pre-existing caches keep working).
  static std::string CachePath(const StudyDriverOptions& options,
                               const std::string& dataset,
                               const std::string& error_type,
                               const std::string& model);

  /// Journal file used while a configuration is in flight (flat backend).
  static std::string JournalPath(const StudyDriverOptions& options,
                                 const std::string& dataset,
                                 const std::string& error_type,
                                 const std::string& model);

  /// Seconds since driver construction.
  double ElapsedSeconds() const;

 private:
  /// Result of computing one repeat slot on a worker (or inline): the
  /// retry loop's outcome plus its accounting, merged into diagnostics on
  /// the driver thread.
  struct SlotOutcome {
    std::optional<CleaningExperimentResult> slice;  ///< empty: skipped
    size_t retries = 0;           ///< attempts beyond the first
    double compute_seconds = 0.0; ///< cpu time spent in the retry loop
    bool budget_skipped = false;  ///< never attempted: budget was gone
    Status last_failure;
  };

  bool BudgetExhausted() const;

  /// Runs the retry loop for one repeat slot. Pure given (dataset,
  /// error_type, family, slot) apart from fault injection, so slots can
  /// compute on any thread in any order.
  SlotOutcome ComputeSlot(const GeneratedDataset& dataset,
                          const std::string& error_type,
                          const TunedModelFamily& family, size_t slot) const;

  /// Merges one computed slot into `result` (scores or skip marker plus
  /// journal cursor) and checkpoints the journal. Driver thread only.
  Status MergeSlot(size_t slot, SlotOutcome outcome,
                   const GeneratedDataset& dataset,
                   const std::string& error_type, const std::string& model,
                   const std::string& journal_key, bool persist,
                   CleaningExperimentResult* result, Status* last_failure);

  /// Effective worker count (resolves options_.threads == 0 via
  /// FAIRCLEAN_THREADS / hardware_concurrency).
  size_t EffectiveThreads() const;

  /// Named instrument shorthand on the driver's local registry.
  obs::Counter* Count(const char* name);
  obs::Histogram* StageWall(const char* stage);
  obs::Histogram* StageCpu(const char* stage);

  StudyDriverOptions options_;
  /// Cache records and repeat journals under options_.cache_dir.
  store::FlatFileStore store_;
  /// Scoped registry: every value recorded here forwards to the same-named
  /// instrument in MetricsRegistry::Global(), so one driver's diagnostics
  /// stay separable while the process-wide export aggregates all of them.
  obs::MetricsRegistry metrics_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace exec
}  // namespace fairclean

#endif  // FAIRCLEAN_EXEC_STUDY_DRIVER_H_
