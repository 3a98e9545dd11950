#include "exec/study_driver.h"

#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/safe_io.h"
#include "common/strings.h"
#include "core/cleaning.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace fairclean {
namespace exec {

namespace {

constexpr FairnessMetric kAllMetrics[] = {
    FairnessMetric::kPredictiveParity,
    FairnessMetric::kEqualOpportunity,
    FairnessMetric::kDemographicParity,
    FairnessMetric::kFalsePositiveRateParity,
    FairnessMetric::kAccuracyParity,
};

// Paired t-tests need at least two completed repeats per configuration.
constexpr size_t kMinCompletedRepeats = 2;

// Bookkeeping keys stored alongside the metric records. "__meta__" sorts
// before the dataset-name keys and is ignored by every metric consumer
// (they look keys up by configuration prefix). A cell record's repeat
// cursor always equals its repeat count; it is written so cell bytes match
// existing caches, and never read.
constexpr char kMetaNextRepeat[] = "__meta__/next_repeat";

// Bumped whenever a slice record's bytes change meaning, so stale slices
// are never reused.
constexpr int kSliceRecordVersion = 1;

std::string SkippedKey(size_t slot) {
  return StrFormat("__meta__/r%zu_skipped", slot);
}

// CPU seconds consumed by the calling thread (falls back to process CPU
// time on platforms without per-thread clocks).
double ThreadCpuSeconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  }
#endif
  return static_cast<double>(std::clock()) /
         static_cast<double>(CLOCKS_PER_SEC);
}

// Measures one stage: the wall time lands in the driver's per-stage
// histogram and, when tracing, in an "exec" span.
class StageScope {
 public:
  StageScope(obs::Histogram* histogram, const char* stage)
      : span_("exec",
              [&] { return std::string("stage ") + stage; }),
        histogram_(histogram),
        start_(std::chrono::steady_clock::now()) {}
  ~StageScope() {
    histogram_->Observe(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count());
  }

 private:
  obs::TraceSpan span_;
  obs::Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

bool SeriesHasNonFinite(const ScoreSeries& series) {
  for (double v : series.accuracy) {
    if (!std::isfinite(v)) return true;
  }
  for (double v : series.f1) {
    if (!std::isfinite(v)) return true;
  }
  for (const auto& [key, values] : series.unfairness) {
    for (double v : values) {
      if (!std::isfinite(v)) return true;
    }
  }
  return false;
}

// A repeat is degenerate when any of its scores is non-finite: an empty
// group slice or single-class fold yields NaN gaps, and an injected
// "numeric" fault yields a NaN accuracy. Such a slice must not reach the
// t-tests.
bool IsDegenerateSlice(const CleaningExperimentResult& slice) {
  if (SeriesHasNonFinite(slice.dirty)) return true;
  for (const auto& [method, series] : slice.repaired) {
    if (SeriesHasNonFinite(series)) return true;
  }
  return false;
}

// A cell shell with no repeats: the metadata every score series hangs off.
CleaningExperimentResult EmptyCell(const DatasetSpec& spec,
                                   const std::string& error_type,
                                   const std::string& model) {
  CleaningExperimentResult result;
  result.dataset = spec.name;
  result.error_type = error_type;
  result.model = model;
  result.groups = GroupDefinitionsFor(spec);
  return result;
}

// Appends slot `repeat`'s scores, rebuilt from the flat records, onto
// `result`. Returns an error if any expected key is absent (stale/partial
// store -> recompute).
Status AppendStoredRepeat(const ResultStore& records,
                          const std::vector<CleaningMethod>& methods,
                          size_t repeat, CleaningExperimentResult* result) {
  // Every lookup is MetricKey({prefix, ...}): "<prefix>__test_acc" or
  // "<prefix>__<group>_<side>__<cell>". One buffer is rebuilt per lookup
  // instead of allocating a key string for each of a cell's ~900 reads.
  std::string key;
  size_t prefix_size = 0;
  auto get = [&](std::initializer_list<std::string_view> parts) {
    key.resize(prefix_size);
    for (std::string_view part : parts) key.append(part);
    return records.Get(key);
  };
  for (size_t v = 0; v <= methods.size(); ++v) {
    const std::string version = v == 0 ? "dirty" : methods[v - 1].Name();
    ScoreSeries* series =
        v == 0 ? &result->dirty : &result->repaired[version];
    key = StrFormat("%s/%s/%s/%s/r%zu__", result->dataset.c_str(),
                    result->error_type.c_str(), version.c_str(),
                    result->model.c_str(), repeat);
    prefix_size = key.size();
    FC_ASSIGN_OR_RETURN(double accuracy, get({"test_acc"}));
    FC_ASSIGN_OR_RETURN(double f1, get({"test_f1"}));
    series->accuracy.push_back(accuracy);
    series->f1.push_back(f1);
    for (const GroupDefinition& group : result->groups) {
      GroupConfusion confusion;
      const struct {
        const char* suffix;
        ConfusionMatrix* cm;
      } sides[2] = {{"_priv__", &confusion.privileged},
                    {"_dis__", &confusion.disadvantaged}};
      for (const auto& side : sides) {
        FC_ASSIGN_OR_RETURN(double tn, get({group.key, side.suffix, "tn"}));
        FC_ASSIGN_OR_RETURN(double fp, get({group.key, side.suffix, "fp"}));
        FC_ASSIGN_OR_RETURN(double fn, get({group.key, side.suffix, "fn"}));
        FC_ASSIGN_OR_RETURN(double tp, get({group.key, side.suffix, "tp"}));
        side.cm->tn = static_cast<int64_t>(tn);
        side.cm->fp = static_cast<int64_t>(fp);
        side.cm->fn = static_cast<int64_t>(fn);
        side.cm->tp = static_cast<int64_t>(tp);
      }
      for (FairnessMetric metric : kAllMetrics) {
        series->unfairness[UnfairnessKey(group.key, metric)].push_back(
            FairnessGap(metric, confusion));
      }
    }
  }
  return Status::OK();
}

// A cell record reassembled into per-repeat score series.
struct Reconstructed {
  CleaningExperimentResult result;
  size_t completed = 0;  ///< slots with scores
};

// Rebuilds ScoreSeries from the flat records of a cell, honoring the skip
// markers, and moves the records into the result. Serves both the
// cache-hit path (records read from disk) and the assembled path (the
// union of this run's slices). Returns an error if any expected key is
// absent.
Result<Reconstructed> ReconstructFromStore(ResultStore records,
                                           const DatasetSpec& spec,
                                           const std::string& error_type,
                                           const std::string& model,
                                           const StudyOptions& study) {
  FC_ASSIGN_OR_RETURN(std::vector<CleaningMethod> methods,
                      CleaningMethodsFor(error_type));
  Reconstructed out;
  out.result = EmptyCell(spec, error_type, model);
  for (size_t repeat = 0; repeat < study.num_repeats; ++repeat) {
    if (records.Contains(SkippedKey(repeat))) continue;
    FC_RETURN_IF_ERROR(
        AppendStoredRepeat(records, methods, repeat, &out.result));
    ++out.completed;
  }
  out.result.records = std::move(records);
  return out;
}

// Parses one slot's slice record and checks it rebuilds to finite scores:
// a record with a bad footer, missing keys, or gaps that reconstruct to NaN
// (written before gap metrics reported empty groups as NaN) is damaged.
Result<ResultStore> DecodeSlice(const std::string& bytes,
                                const DatasetSpec& spec,
                                const std::string& error_type,
                                const std::string& model, size_t slot) {
  FC_ASSIGN_OR_RETURN(std::string body, VerifyChecksumFooter(bytes));
  FC_ASSIGN_OR_RETURN(ResultStore records, ResultStore::FromJson(body));
  FC_ASSIGN_OR_RETURN(std::vector<CleaningMethod> methods,
                      CleaningMethodsFor(error_type));
  CleaningExperimentResult probe = EmptyCell(spec, error_type, model);
  Status rebuilt = AppendStoredRepeat(records, methods, slot, &probe);
  if (!rebuilt.ok()) return Status::InvalidArgument(rebuilt.message());
  if (IsDegenerateSlice(probe)) {
    return Status::InvalidArgument("slice reconstructs to non-finite scores");
  }
  return records;
}

}  // namespace

std::string RunDiagnostics::Format() const {
  std::string out = "study driver diagnostics:\n";
  out += StrFormat(
      "  experiments=%zu cache_hits=%zu slices_reused=%zu\n",
      experiments, cache_hits, slices_reused);
  out += StrFormat(
      "  repeats_run=%zu retries=%zu skips=%zu checkpoints=%zu "
      "corrupt_quarantined=%zu budget_exhausted=%s\n",
      repeats_run, retries, skips, checkpoints, corrupt_quarantined,
      budget_exhausted ? "yes" : "no");
  out += "  wall:";
  for (const auto& [stage, seconds] : stage_seconds) {
    out += StrFormat(" %s=%.2fs", stage.c_str(), seconds);
  }
  out += "\n  cpu:";
  for (const auto& [stage, seconds] : stage_cpu_seconds) {
    out += StrFormat(" %s=%.2fs", stage.c_str(), seconds);
  }
  out += "\n";
  return out;
}

StudyDriver::StudyDriver(StudyDriverOptions options)
    : options_(std::move(options)),
      store_(options_.cache_dir),
      metrics_(&obs::MetricsRegistry::Global()),
      start_(std::chrono::steady_clock::now()) {
  // Touch the tracer so FAIRCLEAN_TRACE takes effect before the first
  // span of the run (instrumentation points are no-ops until then).
  obs::InitTraceFromEnv();
}

obs::Counter* StudyDriver::Count(const char* name) {
  return metrics_.GetCounter(name);
}

obs::Histogram* StudyDriver::StageWall(const char* stage) {
  return metrics_.GetHistogram(
      std::string("driver.stage_wall_s.") + stage,
      obs::MetricsRegistry::DefaultLatencyBounds());
}

obs::Histogram* StudyDriver::StageCpu(const char* stage) {
  return metrics_.GetHistogram(
      std::string("driver.stage_cpu_s.") + stage,
      obs::MetricsRegistry::DefaultLatencyBounds());
}

RunDiagnostics StudyDriver::diagnostics() const {
  RunDiagnostics out;
  constexpr char kWallPrefix[] = "driver.stage_wall_s.";
  constexpr char kCpuPrefix[] = "driver.stage_cpu_s.";
  for (const obs::MetricSnapshot& metric : metrics_.Snapshot()) {
    switch (metric.kind) {
      case obs::MetricSnapshot::Kind::kCounter: {
        size_t value = static_cast<size_t>(metric.value);
        if (metric.name == "driver.experiments") out.experiments = value;
        else if (metric.name == "driver.cache_hits") out.cache_hits = value;
        else if (metric.name == "driver.slices_reused")
          out.slices_reused = value;
        else if (metric.name == "driver.repeats_run") out.repeats_run = value;
        else if (metric.name == "driver.retries") out.retries = value;
        else if (metric.name == "driver.skips") out.skips = value;
        else if (metric.name == "driver.corrupt_quarantined")
          out.corrupt_quarantined = value;
        else if (metric.name == "driver.checkpoints") out.checkpoints = value;
        break;
      }
      case obs::MetricSnapshot::Kind::kGauge:
        if (metric.name == "driver.budget_exhausted") {
          out.budget_exhausted = metric.value != 0.0;
        }
        break;
      case obs::MetricSnapshot::Kind::kHistogram:
        if (metric.name.rfind(kWallPrefix, 0) == 0) {
          out.stage_seconds[metric.name.substr(sizeof(kWallPrefix) - 1)] =
              metric.sum;
        } else if (metric.name.rfind(kCpuPrefix, 0) == 0) {
          out.stage_cpu_seconds[metric.name.substr(sizeof(kCpuPrefix) - 1)] =
              metric.sum;
        }
        break;
    }
  }
  return out;
}

std::string StudyDriver::CacheKey(const StudyDriverOptions& options,
                                  const std::string& dataset,
                                  const std::string& error_type,
                                  const std::string& model) {
  return StrFormat("%s_%s_%s_s%llu_n%zu_r%zu_f%zu.json", dataset.c_str(),
                   error_type.c_str(), model.c_str(),
                   static_cast<unsigned long long>(options.study.seed),
                   options.study.sample_size, options.study.num_repeats,
                   options.study.cv_folds);
}

std::string StudyDriver::SliceKey(const StudyDriverOptions& options,
                                  const std::string& dataset,
                                  const std::string& error_type,
                                  const std::string& model, size_t slot) {
  return StrFormat("slice:v%d:%s_%s_%s_s%llu_n%zu_f%zu_slot%zu",
                   kSliceRecordVersion, dataset.c_str(), error_type.c_str(),
                   model.c_str(),
                   static_cast<unsigned long long>(options.study.seed),
                   options.study.sample_size, options.study.cv_folds, slot);
}

std::string StudyDriver::CachePath(const StudyDriverOptions& options,
                                   const std::string& dataset,
                                   const std::string& error_type,
                                   const std::string& model) {
  return options.cache_dir + "/" +
         CacheKey(options, dataset, error_type, model);
}

double StudyDriver::ElapsedSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

bool StudyDriver::BudgetExhausted() const {
  if (options_.time_budget_s > 0.0 &&
      ElapsedSeconds() > options_.time_budget_s) {
    return true;
  }
  return options_.deadline.has_value() &&
         std::chrono::steady_clock::now() > *options_.deadline;
}

std::optional<CleaningExperimentResult> StudyDriver::ComputeSlot(
    const GeneratedDataset& dataset, const std::string& error_type,
    const TunedModelFamily& family, size_t slot, Status* last_failure) {
  obs::TraceSpan span("exec", [&] {
    return StrFormat("slot %s/%s/%s r%zu", dataset.spec.name.c_str(),
                     error_type.c_str(), family.name.c_str(), slot);
  });
  std::optional<CleaningExperimentResult> out;
  const double cpu_start = ThreadCpuSeconds();
  for (size_t attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) Count("driver.retries")->Increment();
    // First retry replays the same seed (a transient fault resolves
    // without changing any score); later retries reseed.
    uint64_t salt = attempt <= 1 ? 0 : attempt - 1;
    Result<CleaningExperimentResult> slice =
        [&]() -> Result<CleaningExperimentResult> {
      try {
        return RunCleaningRepeatSlice(dataset, error_type, family,
                                      options_.study, slot, salt);
      } catch (const std::exception& e) {
        return Status::Internal(StrFormat("repeat %zu threw: %s", slot,
                                          e.what()));
      }
    }();
    if (!slice.ok()) {
      *last_failure = slice.status();
    } else if (IsDegenerateSlice(*slice)) {
      *last_failure = Status::InvalidArgument(
          StrFormat("degenerate repeat %zu (non-finite score)", slot));
    } else {
      out = std::move(*slice);
      break;
    }
    FC_LOG_WARN("driver", "retry %s/%s/%s r%zu attempt %zu: %s",
                dataset.spec.name.c_str(), error_type.c_str(),
                family.name.c_str(), slot, attempt,
                last_failure->ToString().c_str());
  }
  StageCpu("compute")->Observe(ThreadCpuSeconds() - cpu_start);
  return out;
}

std::optional<ResultStore> StudyDriver::LoadSlice(
    const std::string& key, const DatasetSpec& spec,
    const std::string& error_type, const std::string& model, size_t slot) {
  Result<bool> found = store_.Contains(key);
  if (!found.ok() || !*found) return std::nullopt;
  StageScope stage(StageWall("cache_load"), "cache_load");
  // Slice reads carry the "cache_read" fault probe, like figure records.
  Result<std::string> bytes = [&]() -> Result<std::string> {
    FC_RETURN_IF_ERROR(FaultInjector::Global().Inject("cache_read"));
    return store_.Read(key);
  }();
  if (!bytes.ok()) {
    FC_LOG_WARN("driver", "slice read failed: %s",
                bytes.status().ToString().c_str());
    return std::nullopt;
  }
  Result<ResultStore> records = DecodeSlice(*bytes, spec, error_type,
                                            model, slot);
  if (records.ok()) {
    Count("driver.slices_reused")->Increment();
    return std::move(*records);
  }
  Count("driver.corrupt_quarantined")->Increment();
  Result<std::string> moved = store_.Quarantine(key);
  FC_LOG_WARN("driver", "corrupt slice %s (%s) -> %s",
              store_.Describe(key).c_str(),
              records.status().ToString().c_str(),
              moved.ok() ? moved->c_str() : "quarantine failed");
  return std::nullopt;
}

void StudyDriver::WriteSlice(const std::string& key,
                             const ResultStore& records) {
  StageScope stage(StageWall("checkpoint"), "checkpoint");
  Status written = store_.Write(key, AppendChecksumFooter(records.ToJson()));
  if (!written.ok()) {
    // Non-fatal: worst case a later resume redoes this repeat.
    FC_LOG_WARN("driver", "slice write failed: %s",
                written.ToString().c_str());
    return;
  }
  Count("driver.checkpoints")->Increment();
  if (options_.checkpoint_hook) options_.checkpoint_hook();
}

Result<CleaningExperimentResult> StudyDriver::RunOrLoad(
    const DatasetSpec& spec, const RowsFn& rows,
    const std::string& error_type, const std::string& model,
    std::string* record_sha256) {
  obs::TraceSpan span("exec", [&] {
    return StrFormat("RunOrLoad %s/%s/%s", spec.name.c_str(),
                     error_type.c_str(), model.c_str());
  });
  Count("driver.experiments")->Increment();
  FC_ASSIGN_OR_RETURN(TunedModelFamily family, ModelFamilyByName(model));

  const bool persist = !options_.cache_dir.empty();
  std::string cache_key;
  if (persist) {
    std::error_code ec;
    std::filesystem::create_directories(options_.cache_dir, ec);
    cache_key = CacheKey(options_, spec.name, error_type, model);
    Result<bool> found = store_.Contains(cache_key);
    if (!found.ok()) {
      FC_LOG_WARN("driver", "store lookup of %s failed: %s",
                  cache_key.c_str(), found.status().ToString().c_str());
    }
    // A completed experiment in the result cache.
    if (found.ok() && *found) {
      StageScope stage(StageWall("cache_load"), "cache_load");
      Result<std::string> bytes = store_.Read(cache_key);
      Result<ResultStore> store =
          bytes.ok() ? ResultStore::LoadFromString(*bytes,
                                                   store_.Describe(cache_key))
                     : Result<ResultStore>(bytes.status());
      if (!store.ok()) {
        // Truncated, bit-flipped, or unparsable: quarantine the evidence
        // and recompute. Transient read errors (and a record that vanished
        // under us) just recompute in place.
        if (store.status().code() != StatusCode::kIoError &&
            store.status().code() != StatusCode::kNotFound) {
          Count("driver.corrupt_quarantined")->Increment();
          Result<std::string> moved = store_.Quarantine(cache_key);
          FC_LOG_WARN("driver", "corrupt cache %s (%s) -> %s",
                      store_.Describe(cache_key).c_str(),
                      store.status().ToString().c_str(),
                      moved.ok() ? moved->c_str() : "quarantine failed");
        } else {
          FC_LOG_WARN("driver", "cache read failed: %s",
                      store.status().ToString().c_str());
        }
      } else {
        Result<Reconstructed> cached =
            ReconstructFromStore(std::move(*store), spec, error_type, model,
                                 options_.study);
        if (cached.ok() && cached->completed >= kMinCompletedRepeats &&
            !IsDegenerateSlice(cached->result)) {
          // The degeneracy re-check matters for caches written before gap
          // metrics learned to report empty groups as NaN: their stored
          // confusion matrices now reconstruct to non-finite gaps, and such
          // scores must be recomputed, not served.
          Count("driver.cache_hits")->Increment();
          FC_LOG_INFO("driver", "cache hit %s/%s/%s", spec.name.c_str(),
                      error_type.c_str(), model.c_str());
          if (record_sha256 != nullptr) *record_sha256 = Sha256Hex(*bytes);
          return std::move(cached->result);
        }
        // Stale store (missing keys) at the cache path: the file is intact
        // JSON, just not usable — reassemble and overwrite.
      }
    }
  }

  FC_LOG_INFO("driver", "run %s/%s/%s ...", spec.name.c_str(),
              error_type.c_str(), model.c_str());
  const size_t num_repeats = options_.study.num_repeats;
  // The cell record is the union of its slots' records plus the skip
  // markers and the repeat cursor; ReconstructFromStore turns it into
  // score series exactly as the cache-hit path does.
  ResultStore records;
  Status last_failure;
  // Generated on the first slot that must be computed.
  const GeneratedDataset* dataset = nullptr;
  for (size_t slot = 0; slot < num_repeats; ++slot) {
    std::string slice_key;
    if (persist) {
      slice_key = SliceKey(options_, spec.name, error_type, model, slot);
      std::optional<ResultStore> loaded =
          LoadSlice(slice_key, spec, error_type, model, slot);
      if (loaded.has_value()) {
        records.MergeFrom(*loaded);
        continue;
      }
    }
    if (BudgetExhausted()) {
      metrics_.GetGauge("driver.budget_exhausted")->Set(1.0);
      const bool budget_tripped = options_.time_budget_s > 0.0 &&
                                  ElapsedSeconds() > options_.time_budget_s;
      std::string limit =
          budget_tripped
              ? StrFormat("time budget of %.1fs exhausted after %.1fs",
                          options_.time_budget_s, ElapsedSeconds())
              : "request deadline exceeded";
      return Status::DeadlineExceeded(StrFormat(
          "%s; %zu/%zu repeats of %s/%s/%s are persisted — re-run to resume",
          limit.c_str(), slot, num_repeats, spec.name.c_str(),
          error_type.c_str(), model.c_str()));
    }
    // Simulated hard interruption between repeats (tests kill-and-resume):
    // every earlier repeat is already persisted.
    FC_RETURN_IF_ERROR(FaultInjector::Global().Inject("interrupt"));
    if (dataset == nullptr) {
      FC_ASSIGN_OR_RETURN(dataset, rows());
    }
    std::optional<CleaningExperimentResult> slice;
    {
      StageScope stage(StageWall("compute"), "compute");
      slice = ComputeSlot(*dataset, error_type, family, slot, &last_failure);
    }
    if (!slice.has_value()) {
      // Skipped slots persist nothing; a resume recomputes them.
      Count("driver.skips")->Increment();
      records.Put(SkippedKey(slot), 1.0);
      FC_LOG_WARN("driver", "skip %s/%s/%s r%zu: %s", spec.name.c_str(),
                  error_type.c_str(), model.c_str(), slot,
                  last_failure.ToString().c_str());
      continue;
    }
    Count("driver.repeats_run")->Increment();
    records.MergeFrom(slice->records);
    if (persist) WriteSlice(slice_key, slice->records);
  }
  records.Put(kMetaNextRepeat, static_cast<double>(num_repeats));

  const std::string bytes = AppendChecksumFooter(records.ToJson());
  FC_ASSIGN_OR_RETURN(Reconstructed assembled,
                      ReconstructFromStore(std::move(records), spec,
                                           error_type, model, options_.study));
  if (assembled.completed < kMinCompletedRepeats) {
    return Status::InvalidArgument(StrFormat(
        "only %zu of %zu repeats of %s/%s/%s succeeded (need >= %zu); "
        "last failure: %s",
        assembled.completed, num_repeats, spec.name.c_str(),
        error_type.c_str(), model.c_str(), kMinCompletedRepeats,
        last_failure.ToString().c_str()));
  }

  if (persist) {
    StageScope stage(StageWall("finalize"), "finalize");
    Status saved = store_.Write(cache_key, bytes);
    if (!saved.ok()) {
      FC_LOG_WARN("driver", "cache write failed: %s",
                  saved.ToString().c_str());
    }
  }
  if (record_sha256 != nullptr) *record_sha256 = Sha256Hex(bytes);
  return std::move(assembled.result);
}

}  // namespace exec
}  // namespace fairclean
