#include "exec/study_driver.h"

#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <future>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/safe_io.h"
#include "common/strings.h"
#include "core/cleaning.h"
#include "obs/flight.h"
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
// (they look keys up by configuration prefix).
constexpr char kMetaNextRepeat[] = "__meta__/next_repeat";

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

// A store reassembled into per-repeat score series.
struct Reconstructed {
  CleaningExperimentResult result;
  size_t next_repeat = 0;  ///< slots decided (completed or skipped)
  size_t completed = 0;    ///< slots with scores
  bool complete = false;   ///< all of study.num_repeats slots decided
};

// Rebuilds ScoreSeries from the flat records of a cached or journaled run,
// honoring the skip markers. Returns an error if any expected key is
// absent (stale/partial store -> recompute).
Result<Reconstructed> ReconstructFromStore(const ResultStore& records,
                                           const GeneratedDataset& dataset,
                                           const std::string& error_type,
                                           const std::string& model,
                                           const StudyOptions& study) {
  FC_ASSIGN_OR_RETURN(std::vector<CleaningMethod> methods,
                      CleaningMethodsFor(error_type));
  Reconstructed out;
  CleaningExperimentResult& result = out.result;
  result.dataset = dataset.spec.name;
  result.error_type = error_type;
  result.model = model;
  result.groups = GroupDefinitionsFor(dataset.spec);
  result.records = records;

  out.next_repeat = study.num_repeats;
  if (records.Contains(kMetaNextRepeat)) {
    FC_ASSIGN_OR_RETURN(double raw, records.Get(kMetaNextRepeat));
    if (!(raw >= 0.0) || raw > static_cast<double>(study.num_repeats)) {
      return Status::InvalidArgument(
          StrFormat("journal cursor %g out of range [0, %zu]", raw,
                    study.num_repeats));
    }
    out.next_repeat = static_cast<size_t>(raw);
  }

  std::vector<std::string> versions = {"dirty"};
  for (const CleaningMethod& method : methods) {
    versions.push_back(method.Name());
  }
  for (size_t repeat = 0; repeat < out.next_repeat; ++repeat) {
    if (records.Contains(SkippedKey(repeat))) continue;
    for (const std::string& version : versions) {
      ScoreSeries* series = version == "dirty"
                                ? &result.dirty
                                : &result.repaired[version];
      std::string prefix =
          StrFormat("%s/%s/%s/%s/r%zu", dataset.spec.name.c_str(),
                    error_type.c_str(), version.c_str(), model.c_str(),
                    repeat);
      FC_ASSIGN_OR_RETURN(double accuracy,
                          records.Get(MetricKey({prefix, "test_acc"})));
      FC_ASSIGN_OR_RETURN(double f1,
                          records.Get(MetricKey({prefix, "test_f1"})));
      series->accuracy.push_back(accuracy);
      series->f1.push_back(f1);
      for (const GroupDefinition& group : result.groups) {
        GroupConfusion confusion;
        const struct {
          const char* suffix;
          ConfusionMatrix* cm;
        } sides[2] = {{"priv", &confusion.privileged},
                      {"dis", &confusion.disadvantaged}};
        for (const auto& side : sides) {
          std::string base = group.key + "_" + side.suffix;
          FC_ASSIGN_OR_RETURN(double tn,
                              records.Get(MetricKey({prefix, base, "tn"})));
          FC_ASSIGN_OR_RETURN(double fp,
                              records.Get(MetricKey({prefix, base, "fp"})));
          FC_ASSIGN_OR_RETURN(double fn,
                              records.Get(MetricKey({prefix, base, "fn"})));
          FC_ASSIGN_OR_RETURN(double tp,
                              records.Get(MetricKey({prefix, base, "tp"})));
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
    ++out.completed;
  }
  out.complete = out.next_repeat == study.num_repeats;
  return out;
}

}  // namespace

std::string RunDiagnostics::Format() const {
  std::string out = "study driver diagnostics:\n";
  out += StrFormat(
      "  experiments=%zu cache_hits=%zu journal_resumes=%zu "
      "repeats_resumed=%zu\n",
      experiments, cache_hits, journal_resumes, repeats_resumed);
  out += StrFormat(
      "  repeats_run=%zu retries=%zu skips=%zu checkpoints=%zu "
      "corrupt_quarantined=%zu budget_exhausted=%s threads=%zu\n",
      repeats_run, retries, skips, checkpoints, corrupt_quarantined,
      budget_exhausted ? "yes" : "no", threads);
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
  metrics_.GetGauge("driver.threads")
      ->Set(static_cast<double>(EffectiveThreads()));
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
        else if (metric.name == "driver.journal_resumes")
          out.journal_resumes = value;
        else if (metric.name == "driver.repeats_resumed")
          out.repeats_resumed = value;
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
        } else if (metric.name == "driver.threads") {
          out.threads = static_cast<size_t>(metric.value);
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

size_t StudyDriver::EffectiveThreads() const {
  return options_.threads > 0 ? options_.threads
                              : ThreadPool::DefaultThreadCount();
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

std::string StudyDriver::JournalKey(const StudyDriverOptions& options,
                                    const std::string& dataset,
                                    const std::string& error_type,
                                    const std::string& model) {
  return CacheKey(options, dataset, error_type, model) + ".journal";
}

std::string StudyDriver::CachePath(const StudyDriverOptions& options,
                                   const std::string& dataset,
                                   const std::string& error_type,
                                   const std::string& model) {
  return options.cache_dir + "/" +
         CacheKey(options, dataset, error_type, model);
}

std::string StudyDriver::JournalPath(const StudyDriverOptions& options,
                                     const std::string& dataset,
                                     const std::string& error_type,
                                     const std::string& model) {
  return CachePath(options, dataset, error_type, model) + ".journal";
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

StudyDriver::SlotOutcome StudyDriver::ComputeSlot(
    const GeneratedDataset& dataset, const std::string& error_type,
    const TunedModelFamily& family, size_t slot) const {
  obs::TraceSpan span("exec", [&] {
    return StrFormat("slot %s/%s/%s r%zu", dataset.spec.name.c_str(),
                     error_type.c_str(), family.name.c_str(), slot);
  });
  SlotOutcome out;
  const double cpu_start = ThreadCpuSeconds();
  for (size_t attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) ++out.retries;
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
      out.last_failure = slice.status();
    } else if (IsDegenerateSlice(*slice)) {
      out.last_failure = Status::InvalidArgument(
          StrFormat("degenerate repeat %zu (non-finite score)", slot));
    } else {
      out.slice = std::move(*slice);
      break;
    }
    FC_LOG_WARN("driver", "retry %s/%s/%s r%zu attempt %zu: %s",
                dataset.spec.name.c_str(), error_type.c_str(),
                family.name.c_str(), slot, attempt,
                out.last_failure.ToString().c_str());
  }
  out.compute_seconds = ThreadCpuSeconds() - cpu_start;
  return out;
}

Status StudyDriver::MergeSlot(size_t slot, SlotOutcome outcome,
                              const GeneratedDataset& dataset,
                              const std::string& error_type,
                              const std::string& model,
                              const std::string& journal_key, bool persist,
                              CleaningExperimentResult* result,
                              Status* last_failure) {
  Count("driver.retries")->Increment(outcome.retries);
  StageCpu("compute")->Observe(outcome.compute_seconds);
  if (!outcome.last_failure.ok()) *last_failure = outcome.last_failure;
  if (outcome.slice.has_value()) {
    FC_RETURN_IF_ERROR(AppendRepeatSlice(*outcome.slice, result));
    Count("driver.repeats_run")->Increment();
  } else {
    Count("driver.skips")->Increment();
    result->records.Put(SkippedKey(slot), 1.0);
    FC_LOG_WARN("driver", "skip %s/%s/%s r%zu: %s",
                dataset.spec.name.c_str(), error_type.c_str(), model.c_str(),
                slot, last_failure->ToString().c_str());
  }
  result->records.Put(kMetaNextRepeat, static_cast<double>(slot + 1));

  if (persist) {
    StageScope stage(StageWall("checkpoint"), "checkpoint");
    Status journaled = store_.Write(
        journal_key, AppendChecksumFooter(result->records.ToJson()));
    if (journaled.ok()) {
      Count("driver.checkpoints")->Increment();
      if (obs::FlightEnabled()) {
        obs::FlightRecorder::Record(
            obs::FlightEventType::kCheckpoint,
            obs::FlightRecorder::SiteForCategory("driver.checkpoint"),
            static_cast<uint32_t>(slot));
      }
      if (options_.checkpoint_hook) options_.checkpoint_hook();
    } else {
      // Non-fatal: worst case a later resume redoes this repeat.
      FC_LOG_WARN("driver", "journal write failed: %s",
                  journaled.ToString().c_str());
    }
  }
  return Status::OK();
}

Result<CleaningExperimentResult> StudyDriver::RunOrLoad(
    const GeneratedDataset& dataset, const std::string& error_type,
    const std::string& model) {
  obs::TraceSpan span("exec", [&] {
    return StrFormat("RunOrLoad %s/%s/%s", dataset.spec.name.c_str(),
                     error_type.c_str(), model.c_str());
  });
  Count("driver.experiments")->Increment();
  FC_ASSIGN_OR_RETURN(TunedModelFamily family, ModelFamilyByName(model));

  const bool persist = !options_.cache_dir.empty();
  std::string cache_key;
  std::string journal_key;
  CleaningExperimentResult result;
  size_t resume_from = 0;

  if (persist) {
    std::error_code ec;
    std::filesystem::create_directories(options_.cache_dir, ec);
    cache_key = CacheKey(options_, dataset.spec.name, error_type, model);
    journal_key = cache_key + ".journal";
    auto contains = [&](const std::string& key) {
      Result<bool> found = store_.Contains(key);
      if (!found.ok()) {
        FC_LOG_WARN("driver", "store lookup of %s failed: %s", key.c_str(),
                    found.status().ToString().c_str());
        return false;
      }
      return *found;
    };

    StageScope stage(StageWall("cache_load"), "cache_load");
    // 1) A completed experiment in the result cache.
    if (contains(cache_key)) {
      Result<ResultStore> store = [&]() -> Result<ResultStore> {
        FC_ASSIGN_OR_RETURN(std::string bytes, store_.Read(cache_key));
        return ResultStore::LoadFromString(bytes,
                                           store_.Describe(cache_key));
      }();
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
        Result<Reconstructed> cached = ReconstructFromStore(
            *store, dataset, error_type, model, options_.study);
        if (cached.ok() && cached->complete &&
            cached->completed >= kMinCompletedRepeats &&
            !IsDegenerateSlice(cached->result)) {
          // The degeneracy re-check matters for caches written before gap
          // metrics learned to report empty groups as NaN: their stored
          // confusion matrices now reconstruct to non-finite gaps, and such
          // scores must be recomputed, not served.
          Count("driver.cache_hits")->Increment();
          FC_LOG_INFO("driver", "cache hit %s/%s/%s",
                      dataset.spec.name.c_str(), error_type.c_str(),
                      model.c_str());
          return cached->result;
        }
        // Stale (missing keys) or incomplete store at the cache path: the
        // file is intact JSON, just not usable — recompute and overwrite.
      }
    }

    // 2) A journal from an interrupted run. The journal read keeps the
    // historical "cache_read" fault probe (ReadChecksummedFile carried it
    // on the flat path) and, unlike the cache, strictly requires a footer.
    if (contains(journal_key)) {
      Result<std::string> body = [&]() -> Result<std::string> {
        FC_RETURN_IF_ERROR(FaultInjector::Global().Inject("cache_read"));
        FC_ASSIGN_OR_RETURN(std::string bytes, store_.Read(journal_key));
        Result<std::string> verified = VerifyChecksumFooter(bytes);
        if (!verified.ok()) {
          return Status::InvalidArgument(store_.Describe(journal_key) +
                                         ": " +
                                         verified.status().message());
        }
        return verified;
      }();
      Result<Reconstructed> resumed =
          body.ok() ? [&]() -> Result<Reconstructed> {
            FC_ASSIGN_OR_RETURN(ResultStore store,
                                ResultStore::FromJson(*body));
            return ReconstructFromStore(store, dataset, error_type, model,
                                        options_.study);
          }()
                    : Result<Reconstructed>(body.status());
      if (resumed.ok() && IsDegenerateSlice(resumed->result)) {
        // Same as the cache: a journal whose completed repeats reconstruct
        // to non-finite gaps predates the NaN semantics and cannot be
        // trusted as a resume point.
        resumed = Status::InvalidArgument(
            "journaled repeats reconstruct to non-finite scores");
      }
      if (resumed.ok()) {
        result = std::move(resumed->result);
        resume_from = resumed->next_repeat;
        Count("driver.journal_resumes")->Increment();
        Count("driver.repeats_resumed")->Increment(resumed->completed);
        FC_LOG_INFO("driver", "resume %s/%s/%s at repeat %zu/%zu",
                    dataset.spec.name.c_str(), error_type.c_str(),
                    model.c_str(), resume_from, options_.study.num_repeats);
      } else {
        Count("driver.corrupt_quarantined")->Increment();
        Result<std::string> moved = store_.Quarantine(journal_key);
        FC_LOG_WARN("driver", "corrupt journal %s (%s) -> %s",
                    store_.Describe(journal_key).c_str(),
                    resumed.status().ToString().c_str(),
                    moved.ok() ? moved->c_str() : "quarantine failed");
      }
    }
  }

  if (resume_from < options_.study.num_repeats) {
    FC_LOG_INFO("driver", "run %s/%s/%s ...", dataset.spec.name.c_str(),
                error_type.c_str(), model.c_str());
  }

  Status last_failure;
  const size_t num_repeats = options_.study.num_repeats;
  const size_t threads = EffectiveThreads();

  auto deadline_error = [&](size_t done) {
    metrics_.GetGauge("driver.budget_exhausted")->Set(1.0);
    const bool budget_tripped =
        options_.time_budget_s > 0.0 &&
        ElapsedSeconds() > options_.time_budget_s;
    std::string limit =
        budget_tripped
            ? StrFormat("time budget of %.1fs exhausted after %.1fs",
                        options_.time_budget_s, ElapsedSeconds())
            : "request deadline exceeded";
    return Status::DeadlineExceeded(StrFormat(
        "%s; %zu/%zu repeats of %s/%s/%s are checkpointed — re-run to resume",
        limit.c_str(), done, num_repeats, dataset.spec.name.c_str(),
        error_type.c_str(), model.c_str()));
  };

  if (threads <= 1 || resume_from + 1 >= num_repeats) {
    // Sequential path: compute and merge each slot in turn. This is the
    // reference behavior the parallel path must reproduce byte for byte.
    for (size_t slot = resume_from; slot < num_repeats; ++slot) {
      if (BudgetExhausted()) return deadline_error(slot);
      // Simulated hard interruption between repeats (tests
      // kill-and-resume): everything up to the previous repeat is already
      // journaled.
      FC_RETURN_IF_ERROR(FaultInjector::Global().Inject("interrupt"));
      SlotOutcome outcome;
      {
        StageScope stage(StageWall("compute"), "compute");
        outcome = ComputeSlot(dataset, error_type, family, slot);
      }
      FC_RETURN_IF_ERROR(MergeSlot(slot, std::move(outcome), dataset,
                                   error_type, model, journal_key, persist,
                                   &result, &last_failure));
    }
  } else {
    // Parallel path: fan the remaining slots out across a pool, but merge
    // strictly in repeat order on this thread — the per-repeat seed formula
    // makes every slice independent of its siblings, so computing them out
    // of order cannot change any score, and in-order merging keeps the
    // journal (and the resulting cache) byte-identical to the sequential
    // path. The "interrupt" fault site and the deadline stay driver-side
    // decisions made at merge time, preserving resume semantics.
    //
    // The pool is scoped to this call: its destructor runs every submitted
    // task, so an early return (deadline, injected interrupt) cannot leave
    // a worker touching dead locals. Slots scheduled after the budget
    // expires bail out via budget_skipped without computing.
    ThreadPool pool(std::min(threads, num_repeats - resume_from));
    std::vector<std::future<SlotOutcome>> futures;
    futures.reserve(num_repeats - resume_from);
    size_t scheduled_end = resume_from;
    for (size_t slot = resume_from; slot < num_repeats; ++slot) {
      if (BudgetExhausted()) break;
      futures.push_back(pool.Submit(
          [this, &dataset, &error_type, &family, slot]() -> SlotOutcome {
            if (BudgetExhausted()) {
              SlotOutcome out;
              out.budget_skipped = true;
              return out;
            }
            return ComputeSlot(dataset, error_type, family, slot);
          }));
      scheduled_end = slot + 1;
    }
    for (size_t slot = resume_from; slot < scheduled_end; ++slot) {
      if (BudgetExhausted()) return deadline_error(slot);
      FC_RETURN_IF_ERROR(FaultInjector::Global().Inject("interrupt"));
      SlotOutcome outcome;
      {
        StageScope stage(StageWall("compute"), "compute");
        outcome = futures[slot - resume_from].get();
      }
      if (outcome.budget_skipped) return deadline_error(slot);
      FC_RETURN_IF_ERROR(MergeSlot(slot, std::move(outcome), dataset,
                                   error_type, model, journal_key, persist,
                                   &result, &last_failure));
    }
    if (scheduled_end < num_repeats) return deadline_error(scheduled_end);
  }

  size_t completed = result.dirty.accuracy.size();
  if (completed < kMinCompletedRepeats) {
    Status failure = Status::InvalidArgument(StrFormat(
        "only %zu of %zu repeats of %s/%s/%s succeeded (need >= %zu); "
        "last failure: %s",
        completed, options_.study.num_repeats, dataset.spec.name.c_str(),
        error_type.c_str(), model.c_str(), kMinCompletedRepeats,
        last_failure.ToString().c_str()));
    return failure;
  }

  if (persist) {
    StageScope stage(StageWall("finalize"), "finalize");
    Status saved = store_.Write(
        cache_key, AppendChecksumFooter(result.records.ToJson()));
    if (!saved.ok()) {
      FC_LOG_WARN("driver", "cache write failed: %s",
                  saved.ToString().c_str());
    } else {
      Status removed = store_.Remove(journal_key);
      if (!removed.ok()) {
        FC_LOG_WARN("driver", "journal removal failed: %s",
                    removed.ToString().c_str());
      }
    }
  }
  return result;
}

}  // namespace exec
}  // namespace fairclean
