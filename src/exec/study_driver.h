#ifndef FAIRCLEAN_EXEC_STUDY_DRIVER_H_
#define FAIRCLEAN_EXEC_STUDY_DRIVER_H_

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/runner.h"
#include "datasets/generator.h"
#include "store/blob_store.h"

namespace fairclean {
namespace exec {

/// Knobs of the fault-tolerant study execution layer.
struct StudyDriverOptions {
  StudyOptions study;
  /// Directory for cell records and repeat slices ("" runs fully in
  /// memory: no cache, no slices).
  std::string cache_dir;
  /// Extra attempts per degenerate repeat. The first retry replays the
  /// identical seed (recovering transient faults without changing any
  /// score); later retries derive a fresh deterministic seed. A repeat that
  /// stays degenerate after all retries is skipped.
  size_t max_retries = 2;
  /// Soft wall-clock budget in seconds measured from driver construction
  /// (<= 0: unlimited). When exceeded, the driver returns DeadlineExceeded
  /// at the next repeat boundary instead of being killed mid-write;
  /// re-running reuses the slices written so far.
  double time_budget_s = 0.0;
  /// Invoked after each successful slice write (never on failure). Tests
  /// use it as a deterministic mid-cell crash point.
  std::function<void()> checkpoint_hook;
};

/// Structured counters describing how a driver run degraded (or didn't):
/// cache reuse, slice reuse, retries, skips, quarantined files, and wall
/// time per stage. Printed by run_suite.
///
/// The driver fills its own copy as events happen, and records each event
/// on the same-named instrument of MetricsRegistry::Global() too
/// ("driver.retries", "driver.stage_wall_s.compute", ...), so the
/// FAIRCLEAN_METRICS export sums every driver's counts.
struct RunDiagnostics {
  size_t experiments = 0;        ///< RunOrLoad calls served.
  size_t cache_hits = 0;         ///< served entirely from the result cache
  size_t slices_reused = 0;      ///< repeats loaded from slice records
  size_t repeats_run = 0;        ///< repeats computed in this process
  size_t retries = 0;            ///< extra attempts on degenerate repeats
  size_t skips = 0;              ///< repeats abandoned after all retries
  size_t corrupt_quarantined = 0;///< cell/slice records moved to .corrupt
  size_t checkpoints = 0;        ///< slice records written
  bool budget_exhausted = false; ///< stopped by FAIRCLEAN_TIME_BUDGET_S
  /// Wall-clock seconds per stage: "cache_load" (cell and slice reads),
  /// "compute", "checkpoint" (slice writes), "finalize" (cell write).
  std::map<std::string, double> stage_seconds;
  /// CPU seconds per stage on the computing thread; "compute" excludes
  /// the fold-level workers it fans out to.
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
///  - persists every completed repeat as its own checksummed slice record
///    (atomic temp-file+rename), keyed without the repeat count, so an
///    interrupted experiment resumes at the repeat boundary, a run with
///    more repeats reuses the slices of a smaller one, and both reproduce
///    byte-identical cell records;
///  - retries degenerate repeats (non-finite score, single-class fold,
///    empty group slice) with deterministic reseeding, then skips them;
///  - honors a soft time budget, exiting cleanly with resumable state.
///
/// Repeats run sequentially on the calling thread; callers that want
/// parallelism run several drivers (the suite scheduler fans out across
/// cells). One driver instance is meant to span a whole cell production so
/// the time budget and diagnostics cover the full scope. RunOrLoad must be
/// called from one thread at a time.
class StudyDriver {
 public:
  explicit StudyDriver(StudyDriverOptions options);

  /// Supplies a cell's generated rows. The pointee must outlive the
  /// RunOrLoad call.
  using RowsFn = std::function<Result<const GeneratedDataset*>()>;

  /// Runs (or loads, or resumes) the cleaning experiment for one
  /// (dataset, error type, model family). Keys, logs, cache hits and slice
  /// loads need only `spec`; `rows` is called at most once, at the first
  /// repeat slot that must be computed, so a cache hit generates no data.
  /// When `record_sha256` is set it receives the SHA-256 of the cell
  /// record's bytes: the bytes read and verified on a hit, otherwise the
  /// bytes written (or, without a cache dir, that would be written). On
  /// DeadlineExceeded the completed repeats are already persisted and a
  /// re-run reuses them.
  Result<CleaningExperimentResult> RunOrLoad(const DatasetSpec& spec,
                                             const RowsFn& rows,
                                             const std::string& error_type,
                                             const std::string& model,
                                             std::string* record_sha256 =
                                                 nullptr);

  /// RunOrLoad over rows the caller already holds.
  Result<CleaningExperimentResult> RunOrLoad(const GeneratedDataset& dataset,
                                             const std::string& error_type,
                                             const std::string& model) {
    return RunOrLoad(dataset.spec, [&dataset] { return &dataset; },
                     error_type, model);
  }

  /// What this driver has done so far.
  const RunDiagnostics& diagnostics() const { return diagnostics_; }

  /// Store key (cache-file basename) of one configuration's cell record.
  static std::string CacheKey(const StudyDriverOptions& options,
                              const std::string& dataset,
                              const std::string& error_type,
                              const std::string& model);

  /// Store key of one repeat slot's slice record. It leaves out the repeat
  /// count: slot k's bytes do not depend on how many repeats the cell has.
  static std::string SliceKey(const StudyDriverOptions& options,
                              const std::string& dataset,
                              const std::string& error_type,
                              const std::string& model, size_t slot);

  /// Seconds since driver construction.
  double ElapsedSeconds() const;

 private:
  bool BudgetExhausted() const;

  /// Runs the retry loop for one repeat slot and records its accounting.
  /// Returns the slot's slice, or nullopt when every attempt failed or was
  /// degenerate (`last_failure` says why).
  std::optional<CleaningExperimentResult> ComputeSlot(
      const GeneratedDataset& dataset, const std::string& error_type,
      const TunedModelFamily& family, size_t slot, Status* last_failure);

  /// The slot's persisted slice records, or nullopt on a miss. A damaged
  /// record is quarantined; a failed read (the "cache_read" probe
  /// included) is a miss that leaves the record in place.
  std::optional<ResultStore> LoadSlice(const std::string& key,
                                       const DatasetSpec& spec,
                                       const std::string& error_type,
                                       const std::string& model,
                                       size_t slot);

  /// Persists one computed slot's records as its slice, then fires the
  /// checkpoint hook. A failed write only costs a recompute on resume.
  void WriteSlice(const std::string& key, const ResultStore& records);

  /// Bumps one diagnostics counter and the global counter `name`.
  void Count(size_t* counter, const char* name);

  StudyDriverOptions options_;
  /// Cell and slice records under options_.cache_dir.
  store::FlatFileStore store_;
  RunDiagnostics diagnostics_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace exec
}  // namespace fairclean

#endif  // FAIRCLEAN_EXEC_STUDY_DRIVER_H_
