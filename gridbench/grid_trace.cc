// Traced replay of the paper grid for the grid benchmark (gridbench/run.py).
//
// Drives every layer through its public entry points in the order
// run_suite's dataset, figure, cell and table nodes call them, records a
// span around each call, cross-checks the replay against the library's
// own code path, and writes a JSON summary of per-layer time and counts.
//
// Usage: grid_trace --mode compute|warm --store-dir <dir> --out <json>
//
//   compute  replays a cold run: datasets, figure panels, every repeat
//            slot of every cell (with the study driver's retry rule), the
//            cell record writes into --store-dir (an empty scratch dir),
//            and the table aggregations.
//   warm     replays a warm run: datasets, figure panels, the cell records
//            read back from --store-dir (a cache run_suite filled), and the
//            table aggregations.
//
// Checks: every replayed figure panel must equal AnalyzeDisparities, and
// (compute) slot 0 of every cell must equal RunCleaningRepeatSlice bit for
// bit. The summary lists each cell's record sha256 and class and each
// table's counts, which run.py compares with run_suite's own report.
//
// The study scale comes from the FAIRCLEAN_* variables run_suite reads.
// Exit codes: 0 replay matched, 1 error or mismatch.
//
// Only entry points that are independent of the optional execution modes,
// store backends and shard modes are called: the default TuneAndFit /
// ModelFamilyByName arguments and the default (flat) store.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/safe_io.h"
#include "common/strings.h"
#include "core/cleaning.h"
#include "core/disparity.h"
#include "core/runner.h"
#include "data/split.h"
#include "detect/detector.h"
#include "exec/study_driver.h"
#include "fairness/fairness_metrics.h"
#include "ml/encoder.h"
#include "ml/tuning.h"
#include "repair/label_repair.h"
#include "repair/outlier_repair.h"
#include "sched/experiment_graph.h"
#include "sched/shard.h"
#include "sched/suite_runner.h"
#include "sched/suite_spec.h"
#include "stats/tests.h"
#include "store/blob_store.h"

namespace {

using namespace fairclean;         // NOLINT
using namespace fairclean::sched;  // NOLINT
using Clock = std::chrono::steady_clock;

constexpr FairnessMetric kAllMetrics[] = {
    FairnessMetric::kPredictiveParity,
    FairnessMetric::kEqualOpportunity,
    FairnessMetric::kDemographicParity,
    FairnessMetric::kFalsePositiveRateParity,
    FairnessMetric::kAccuracyParity,
};

// The study driver's bookkeeping keys and completion rule.
constexpr char kMetaNextRepeat[] = "__meta__/next_repeat";
constexpr size_t kMinCompletedRepeats = 2;

std::string SkippedKey(size_t slot) {
  return StrFormat("__meta__/r%zu_skipped", slot);
}

// In-memory span recorder. Spans nest; each layer accumulates its self time
// (duration minus the part covered by child spans) and its call count.
class Spans {
 public:
  struct Layer {
    double self_s = 0.0;
    double total_s = 0.0;
    uint64_t calls = 0;
  };

  class Scope {
   public:
    Scope(Spans* spans, std::string name) : spans_(spans) {
      spans_->stack_.push_back({std::move(name), Clock::now(), 0.0});
    }
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Closes the span early; returns its duration in seconds.
    double End() {
      if (ended_) return duration_;
      ended_ = true;
      Frame frame = std::move(spans_->stack_.back());
      spans_->stack_.pop_back();
      duration_ =
          std::chrono::duration<double>(Clock::now() - frame.start).count();
      Layer& layer = spans_->layers_[frame.name];
      layer.self_s += duration_ - frame.child_s;
      layer.total_s += duration_;
      ++layer.calls;
      if (!spans_->stack_.empty()) spans_->stack_.back().child_s += duration_;
      return duration_;
    }

   private:
    Spans* spans_;
    bool ended_ = false;
    double duration_ = 0.0;
  };

  /// Runs `fn` inside a span named `name` and returns its result.
  template <typename Fn>
  auto Time(const std::string& name, Fn&& fn) -> decltype(fn()) {
    Scope scope(this, name);
    return fn();
  }

  const std::map<std::string, Layer>& layers() const { return layers_; }

 private:
  struct Frame {
    std::string name;
    Clock::time_point start;
    double child_s;
  };
  std::vector<Frame> stack_;
  std::map<std::string, Layer> layers_;
};

struct StoreCounts {
  uint64_t bytes = 0;
  uint64_t records = 0;
};

// One trained-and-scored model (mirrors the runner's TrainAndEvaluate).
struct EvalOutcome {
  double accuracy = 0.0;
  double f1 = 0.0;
  double best_param = 0.0;
  std::map<std::string, GroupConfusion> groups;
};

class Replay {
 public:
  Replay(SuiteOptions options, std::shared_ptr<store::FlatFileStore> store)
      : options_(std::move(options)), store_(std::move(store)) {}

  Spans& spans() { return spans_; }
  const StoreCounts& store_counts() const { return store_counts_; }

  Result<GeneratedDataset> Dataset(const std::string& name) {
    return spans_.Time("datasets.gen", [&] {
      return MakeSuiteDataset(name, options_.study.seed);
    });
  }

  // Mirrors AnalyzeDisparities on a figure's fresh rng stream.
  Result<std::vector<DisparityRow>> Disparity(const GeneratedDataset& dataset,
                                              bool intersectional) {
    const DatasetSpec& spec = dataset.spec;
    Rng rng(options_.study.seed + (intersectional ? 19 : 17));
    std::vector<std::string> detectors;
    if (spec.HasErrorType("missing_values")) {
      detectors.push_back("missing_values");
    }
    if (spec.HasErrorType("outliers")) {
      detectors.insert(detectors.end(),
                       {"outliers-sd", "outliers-iqr", "outliers-if"});
    }
    if (spec.HasErrorType("mislabels")) detectors.push_back("mislabels");

    std::vector<std::pair<std::string, GroupAssignment>> assignments;
    {
      Spans::Scope span(&spans_, "fairness");
      for (const GroupDefinition& group : GroupDefinitionsFor(spec)) {
        if (group.intersectional != intersectional) continue;
        Result<GroupAssignment> assignment =
            group.intersectional
                ? IntersectionalGroups(dataset.frame, group.first, group.second)
                : SingleAttributeGroups(dataset.frame, group.first);
        if (!assignment.ok()) return assignment.status();
        assignments.emplace_back(group.key, std::move(*assignment));
      }
    }
    if (assignments.empty()) return std::vector<DisparityRow>{};

    DetectionContext context;
    context.inspect_columns = spans_.Time(
        "core.prepare", [&] { return spec.FeatureColumns(dataset.frame); });
    context.label_column = spec.label;

    std::vector<DisparityRow> rows;
    for (const std::string& name : detectors) {
      Rng detector_rng = rng.Fork(std::hash<std::string>{}(name));
      FC_ASSIGN_OR_RETURN(ErrorMask mask,
                          Detect(name, dataset.frame, context, &detector_rng));
      Spans::Scope span(&spans_, "stats");
      for (const auto& [group_key, assignment] : assignments) {
        DisparityRow row;
        row.dataset = spec.name;
        row.detector = name;
        row.group_key = group_key;
        row.intersectional = intersectional;
        for (size_t i = 0; i < dataset.frame.num_rows(); ++i) {
          bool flagged = mask.RowFlagged(i);
          if (assignment.privileged[i]) {
            ++row.privileged_total;
            if (flagged) ++row.privileged_flagged;
          } else if (assignment.disadvantaged[i]) {
            ++row.disadvantaged_total;
            if (flagged) ++row.disadvantaged_flagged;
          }
        }
        ContingencyTable2x2 table;
        table.a = static_cast<int64_t>(row.privileged_flagged);
        table.b = static_cast<int64_t>(row.privileged_total -
                                       row.privileged_flagged);
        table.c = static_cast<int64_t>(row.disadvantaged_flagged);
        table.d = static_cast<int64_t>(row.disadvantaged_total -
                                       row.disadvantaged_flagged);
        Result<TestResult> test = GTest2x2(table);
        if (test.ok()) {
          row.g2 = *test;
          row.significant = test->SignificantAt(DisparityOptions().alpha);
        }
        rows.push_back(std::move(row));
      }
    }
    return rows;
  }

  // Mirrors RunCleaningRepeatSlice for one slot and salt.
  Result<CleaningExperimentResult> Slice(
      const GeneratedDataset& dataset, const std::string& error_type,
      const TunedModelFamily& family, size_t repeat, uint64_t seed_salt,
      const std::vector<GroupDefinition>& groups) {
    const StudyOptions& study = options_.study;
    const DatasetSpec& spec = dataset.spec;
    if (!spec.HasErrorType(error_type)) {
      return Status::InvalidArgument("dataset " + spec.name +
                                     " has no error type " + error_type);
    }
    FC_ASSIGN_OR_RETURN(std::vector<CleaningMethod> methods,
                        CleaningMethodsFor(error_type));
    CleaningExperimentResult result;
    result.dataset = spec.name;
    result.error_type = error_type;
    result.model = family.name;
    result.groups = groups;

    uint64_t repeat_seed =
        study.seed ^ Fnv1a64(StrFormat("%s/%s/%s/%zu", spec.name.c_str(),
                                       error_type.c_str(),
                                       family.name.c_str(), repeat));
    if (seed_salt != 0) {
      repeat_seed ^= Fnv1a64(StrFormat(
          "retry/%llu", static_cast<unsigned long long>(seed_salt)));
    }
    Rng rng(repeat_seed);

    struct Versions {
      PreparedData base;
      PreparedData dirty;
    };
    Result<Versions> versions = spans_.Time(
        "core.prepare", [&]() -> Result<Versions> {
          size_t total_rows = dataset.frame.num_rows();
          std::vector<size_t> sample = rng.SampleWithoutReplacement(
              total_rows, std::min(study.sample_size, total_rows));
          DataFrame sampled = dataset.frame.Take(sample);
          TrainTestIndices split =
              SplitTrainTest(sampled.num_rows(), study.test_fraction, &rng);
          DataFrame train_raw = sampled.Take(split.train);
          DataFrame test_raw = sampled.Take(split.test);
          Versions out;
          FC_ASSIGN_OR_RETURN(
              out.base, PrepareBase(train_raw, test_raw, spec, error_type));
          FC_ASSIGN_OR_RETURN(out.dirty,
                              MakeDirtyVersion(out.base, spec, error_type));
          return out;
        });
    if (!versions.ok()) return versions.status();
    const PreparedData& base = versions->base;

    Rng dirty_rng = rng.Fork(0xd127);
    FC_ASSIGN_OR_RETURN(EvalOutcome dirty_outcome,
                        TrainAndEvaluate(versions->dirty, spec, groups, family,
                                         &dirty_rng));
    Record(dirty_outcome, groups,
           StrFormat("%s/%s/dirty/%s/r%zu", spec.name.c_str(),
                     error_type.c_str(), family.name.c_str(), repeat),
           &result.dirty, &result.records);

    for (const CleaningMethod& method : methods) {
      Rng method_rng = rng.Fork(Fnv1a64(method.Name()));
      FC_ASSIGN_OR_RETURN(PreparedData repaired,
                          Repair(base, spec, method, &method_rng));
      Rng eval_rng = rng.Fork(Fnv1a64(method.Name() + "/eval"));
      FC_ASSIGN_OR_RETURN(EvalOutcome outcome,
                          TrainAndEvaluate(repaired, spec, groups, family,
                                           &eval_rng));
      Record(outcome, groups,
             StrFormat("%s/%s/%s/%s/r%zu", spec.name.c_str(),
                       error_type.c_str(), method.Name().c_str(),
                       family.name.c_str(), repeat),
             &result.repaired[method.Name()], &result.records);
    }
    return result;
  }

  // Counts of the study driver's repeat loop, summed over cells.
  struct CellCounts {
    uint64_t repeats_run = 0;
    uint64_t retries = 0;
    uint64_t skips = 0;
  };

  struct CellOutcome {
    CleaningExperimentResult result;
    std::string record;  ///< exact cache-record bytes
    CellClass cell_class = CellClass::kPass;
    /// Compute mode: the replayed slot 0 and the salt that produced it
    /// (empty when slot 0 was skipped), for the cross-check.
    std::optional<CleaningExperimentResult> slot0;
    uint64_t slot0_salt = 0;
  };

  // Mirrors StudyDriver::RunOrLoad on a cache miss (sequential path) plus
  // the scheduler's class record and record read-back.
  Result<CellOutcome> ComputeCell(const GeneratedDataset& dataset,
                                  const CellKey& cell,
                                  const TunedModelFamily& family,
                                  const std::vector<GroupDefinition>& groups,
                                  CellCounts* counts) {
    const std::string cache_key = CacheKey(cell);
    const std::string journal_key = cache_key + ".journal";
    Status fresh = spans_.Time("store.read", [&]() -> Status {
      for (const std::string& key : {cache_key, journal_key}) {
        FC_ASSIGN_OR_RETURN(bool found, store_->Contains(key));
        if (found) return Status::Internal("scratch store not empty: " + key);
      }
      return Status::OK();
    });
    if (!fresh.ok()) return fresh;

    CellOutcome out;
    size_t retries = 0;
    size_t skips = 0;
    for (size_t slot = 0; slot < options_.study.num_repeats; ++slot) {
      std::optional<CleaningExperimentResult> slice;
      uint64_t salt = 0;
      for (size_t attempt = 0; attempt <= options_.max_retries; ++attempt) {
        if (attempt > 0) ++retries;
        salt = attempt <= 1 ? 0 : attempt - 1;
        Result<CleaningExperimentResult> tried =
            Slice(dataset, cell.error_type, family, slot, salt, groups);
        if (tried.ok() && !Degenerate(*tried)) {
          slice = std::move(*tried);
          break;
        }
      }
      if (slot == 0) {
        out.slot0 = slice;
        out.slot0_salt = salt;
      }
      Result<std::string> journal =
          spans_.Time("exec.merge", [&]() -> Result<std::string> {
            if (slice.has_value()) {
              FC_RETURN_IF_ERROR(AppendRepeatSlice(*slice, &out.result));
              ++counts->repeats_run;
            } else {
              ++skips;
              out.result.records.Put(SkippedKey(slot), 1.0);
            }
            out.result.records.Put(kMetaNextRepeat,
                                   static_cast<double>(slot + 1));
            return AppendChecksumFooter(out.result.records.ToJson());
          });
      if (!journal.ok()) return journal.status();
      FC_RETURN_IF_ERROR(Write(journal_key, *journal));
      out.record = std::move(*journal);
    }
    counts->retries += retries;
    counts->skips += skips;
    if (out.result.dirty.accuracy.size() < kMinCompletedRepeats) {
      return Status::InvalidArgument("too few completed repeats in " +
                                     cell.Id());
    }
    FC_RETURN_IF_ERROR(Write(cache_key, out.record));
    FC_RETURN_IF_ERROR(spans_.Time(
        "store.write", [&] { return store_->Remove(journal_key); }));
    FC_ASSIGN_OR_RETURN(std::string read_back, Read(cache_key));
    if (read_back != out.record) {
      return Status::Internal("store read-back differs for " + cell.Id());
    }
    out.cell_class = skips > 0     ? CellClass::kSkipped
                     : retries > 0 ? CellClass::kDegenerateRetry
                                   : CellClass::kPass;
    FC_RETURN_IF_ERROR(Write(ClassKeyFor(cache_key),
                             std::string(CellClassName(out.cell_class)) +
                                 "\n"));
    return out;
  }

  // Mirrors StudyDriver::RunOrLoad on a cache hit plus the scheduler's
  // record re-read and class read.
  Result<CellOutcome> LoadCell(const GeneratedDataset& dataset,
                               const CellKey& cell) {
    const std::string cache_key = CacheKey(cell);
    FC_ASSIGN_OR_RETURN(bool found, spans_.Time("store.read", [&] {
                          return store_->Contains(cache_key);
                        }));
    if (!found) return Status::NotFound("no cache record for " + cell.Id());
    FC_ASSIGN_OR_RETURN(std::string bytes, Read(cache_key));
    FC_ASSIGN_OR_RETURN(ResultStore records,
                        spans_.Time("store.read", [&] {
                          return ResultStore::LoadFromString(
                              bytes, store_->Describe(cache_key));
                        }));
    CellOutcome out;
    FC_ASSIGN_OR_RETURN(out.result, spans_.Time("exec.merge", [&] {
                          return Reconstruct(records, dataset, cell);
                        }));
    FC_ASSIGN_OR_RETURN(out.record, Read(cache_key));
    FC_ASSIGN_OR_RETURN(std::string class_name, Read(ClassKeyFor(cache_key)));
    while (!class_name.empty() && class_name.back() == '\n') {
      class_name.pop_back();
    }
    FC_ASSIGN_OR_RETURN(out.cell_class, CellClassFromName(class_name));
    return out;
  }

 private:
  std::string CacheKey(const CellKey& cell) const {
    exec::StudyDriverOptions driver_options;
    driver_options.study = options_.study;
    return exec::StudyDriver::CacheKey(driver_options, cell.dataset,
                                       cell.error_type, cell.model);
  }

  Status Write(const std::string& key, const std::string& bytes) {
    store_counts_.bytes += bytes.size();
    ++store_counts_.records;
    return spans_.Time("store.write",
                       [&] { return store_->Write(key, bytes); });
  }

  Result<std::string> Read(const std::string& key) {
    FC_ASSIGN_OR_RETURN(std::string bytes, spans_.Time("store.read", [&] {
                          return store_->Read(key);
                        }));
    store_counts_.bytes += bytes.size();
    ++store_counts_.records;
    return bytes;
  }

  Result<ErrorMask> Detect(const std::string& name, const DataFrame& frame,
                           const DetectionContext& context, Rng* rng) {
    return spans_.Time("detect." + name, [&]() -> Result<ErrorMask> {
      FC_ASSIGN_OR_RETURN(std::unique_ptr<ErrorDetector> detector,
                          DetectorByName(name));
      return detector->Detect(frame, context, rng);
    });
  }

  // Mirrors MakeRepairedVersion with detect and repair timed apart.
  Result<PreparedData> Repair(const PreparedData& base,
                              const DatasetSpec& spec,
                              const CleaningMethod& method, Rng* rng) {
    std::vector<std::string> features;
    PreparedData repaired = spans_.Time("core.prepare", [&] {
      features = spec.FeatureColumns(base.train);
      return base;
    });
    if (method.error_type == "missing_values") {
      FC_RETURN_IF_ERROR(spans_.Time("repair", [&]() -> Status {
        MissingValueImputer imputer(method.numeric_impute,
                                    method.categorical_impute);
        FC_RETURN_IF_ERROR(imputer.Fit(repaired.train, features));
        FC_RETURN_IF_ERROR(imputer.Apply(&repaired.train));
        return imputer.Apply(&repaired.test);
      }));
      return repaired;
    }
    DetectionContext context;
    context.inspect_columns = features;
    context.label_column = spec.label;
    if (method.error_type == "outliers") {
      Rng train_rng = rng->Fork(0x0071);
      FC_ASSIGN_OR_RETURN(
          ErrorMask train_mask,
          Detect(method.detector, repaired.train, context, &train_rng));
      Rng test_rng = rng->Fork(0x0072);
      FC_ASSIGN_OR_RETURN(
          ErrorMask test_mask,
          Detect(method.detector, repaired.test, context, &test_rng));
      FC_RETURN_IF_ERROR(spans_.Time("repair", [&]() -> Status {
        OutlierRepairer repairer(method.numeric_impute);
        FC_RETURN_IF_ERROR(repairer.Fit(repaired.train, train_mask, features));
        FC_RETURN_IF_ERROR(repairer.Apply(&repaired.train, train_mask));
        return repairer.Apply(&repaired.test, test_mask);
      }));
      return repaired;
    }
    if (method.error_type == "mislabels") {
      Rng train_rng = rng->Fork(0x1a8e1);
      FC_ASSIGN_OR_RETURN(
          ErrorMask train_mask,
          Detect(method.detector, repaired.train, context, &train_rng));
      FC_RETURN_IF_ERROR(spans_.Time("repair", [&]() -> Status {
        return FlipFlaggedLabels(&repaired.train, train_mask, spec.label)
            .status();
      }));
      return repaired;
    }
    return Status::NotFound("unknown error type: " + method.error_type);
  }

  Result<EvalOutcome> TrainAndEvaluate(
      const PreparedData& data, const DatasetSpec& spec,
      const std::vector<GroupDefinition>& groups,
      const TunedModelFamily& family, Rng* rng) {
    struct Encoded {
      Matrix train_x, test_x;
      std::vector<int> train_y, test_y;
    };
    Result<Encoded> enc = spans_.Time("ml.encode", [&]() -> Result<Encoded> {
      FeatureEncoder encoder;
      FC_RETURN_IF_ERROR(
          encoder.Fit(data.train, spec.FeatureColumns(data.train)));
      Encoded e;
      FC_ASSIGN_OR_RETURN(e.train_x, encoder.Transform(data.train));
      FC_ASSIGN_OR_RETURN(e.test_x, encoder.Transform(data.test));
      FC_ASSIGN_OR_RETURN(e.train_y,
                          ExtractBinaryLabels(data.train, spec.label));
      FC_ASSIGN_OR_RETURN(e.test_y,
                          ExtractBinaryLabels(data.test, spec.label));
      return e;
    });
    if (!enc.ok()) return enc.status();
    Rng tune_rng = rng->Fork(0x70e0);
    Result<TuneOutcome> tuned = spans_.Time("ml.tune." + family.name, [&] {
      return TuneAndFit(family, enc->train_x, enc->train_y,
                        options_.study.cv_folds, &tune_rng);
    });
    if (!tuned.ok()) return tuned.status();
    EvalOutcome outcome;
    outcome.best_param = tuned->best_param;
    std::vector<int> predictions = spans_.Time("ml.predict", [&] {
      std::vector<int> predicted = tuned->model->Predict(enc->test_x);
      outcome.accuracy = AccuracyScore(enc->test_y, predicted);
      outcome.f1 = F1Score(enc->test_y, predicted);
      return predicted;
    });
    Status scored = spans_.Time("fairness", [&]() -> Status {
      for (const GroupDefinition& group : groups) {
        FC_ASSIGN_OR_RETURN(
            GroupAssignment assignment,
            group.intersectional
                ? IntersectionalGroups(data.test, group.first, group.second)
                : SingleAttributeGroups(data.test, group.first));
        FC_ASSIGN_OR_RETURN(
            GroupConfusion confusion,
            ComputeGroupConfusion(enc->test_y, predictions, assignment));
        outcome.groups.emplace(group.key, confusion);
      }
      return Status::OK();
    });
    if (!scored.ok()) return scored;
    return outcome;
  }

  // Mirrors the runner's AppendScores (fairness gaps) and RecordOutcome
  // (flat result records).
  void Record(const EvalOutcome& outcome,
              const std::vector<GroupDefinition>& groups,
              const std::string& prefix, ScoreSeries* series,
              ResultStore* records) {
    spans_.Time("fairness", [&] {
      series->accuracy.push_back(outcome.accuracy);
      series->f1.push_back(outcome.f1);
      for (const GroupDefinition& group : groups) {
        const GroupConfusion& confusion = outcome.groups.at(group.key);
        for (FairnessMetric metric : kAllMetrics) {
          series->unfairness[UnfairnessKey(group.key, metric)].push_back(
              FairnessGap(metric, confusion));
        }
      }
    });
    spans_.Time("exec.merge", [&] {
      records->Put(MetricKey({prefix, "test_acc"}), outcome.accuracy);
      records->Put(MetricKey({prefix, "test_f1"}), outcome.f1);
      records->Put(MetricKey({prefix, "best_param"}), outcome.best_param);
      for (const GroupDefinition& group : groups) {
        const GroupConfusion& confusion = outcome.groups.at(group.key);
        const std::pair<const char*, const ConfusionMatrix*> sides[2] = {
            {"priv", &confusion.privileged},
            {"dis", &confusion.disadvantaged}};
        for (const auto& [suffix, cm] : sides) {
          std::string base = group.key + "_" + suffix;
          records->Put(MetricKey({prefix, base, "tn"}),
                       static_cast<double>(cm->tn));
          records->Put(MetricKey({prefix, base, "fp"}),
                       static_cast<double>(cm->fp));
          records->Put(MetricKey({prefix, base, "fn"}),
                       static_cast<double>(cm->fn));
          records->Put(MetricKey({prefix, base, "tp"}),
                       static_cast<double>(cm->tp));
        }
      }
    });
  }

  static bool NonFinite(const ScoreSeries& series) {
    auto bad = [](const std::vector<double>& values) {
      return std::any_of(values.begin(), values.end(),
                         [](double v) { return !std::isfinite(v); });
    };
    if (bad(series.accuracy) || bad(series.f1)) return true;
    for (const auto& [key, values] : series.unfairness) {
      if (bad(values)) return true;
    }
    return false;
  }

  static bool Degenerate(const CleaningExperimentResult& slice) {
    if (NonFinite(slice.dirty)) return true;
    for (const auto& [method, series] : slice.repaired) {
      if (NonFinite(series)) return true;
    }
    return false;
  }

  // Mirrors the study driver's reconstruction of score series from a
  // cached record.
  Result<CleaningExperimentResult> Reconstruct(const ResultStore& records,
                                               const GeneratedDataset& dataset,
                                               const CellKey& cell) {
    FC_ASSIGN_OR_RETURN(std::vector<CleaningMethod> methods,
                        CleaningMethodsFor(cell.error_type));
    CleaningExperimentResult result;
    result.dataset = dataset.spec.name;
    result.error_type = cell.error_type;
    result.model = cell.model;
    result.groups = GroupDefinitionsFor(dataset.spec);
    result.records = records;
    std::vector<std::string> versions = {"dirty"};
    for (const CleaningMethod& method : methods) {
      versions.push_back(method.Name());
    }
    for (size_t repeat = 0; repeat < options_.study.num_repeats; ++repeat) {
      if (records.Contains(SkippedKey(repeat))) continue;
      for (const std::string& version : versions) {
        ScoreSeries* series = version == "dirty" ? &result.dirty
                                                 : &result.repaired[version];
        std::string prefix = StrFormat(
            "%s/%s/%s/%s/r%zu", dataset.spec.name.c_str(),
            cell.error_type.c_str(), version.c_str(), cell.model.c_str(),
            repeat);
        FC_ASSIGN_OR_RETURN(double accuracy,
                            records.Get(MetricKey({prefix, "test_acc"})));
        FC_ASSIGN_OR_RETURN(double f1,
                            records.Get(MetricKey({prefix, "test_f1"})));
        series->accuracy.push_back(accuracy);
        series->f1.push_back(f1);
        for (const GroupDefinition& group : result.groups) {
          GroupConfusion confusion;
          const std::pair<const char*, ConfusionMatrix*> sides[2] = {
              {"priv", &confusion.privileged},
              {"dis", &confusion.disadvantaged}};
          for (const auto& [suffix, cm] : sides) {
            std::string base = group.key + "_" + suffix;
            FC_ASSIGN_OR_RETURN(double tn,
                                records.Get(MetricKey({prefix, base, "tn"})));
            FC_ASSIGN_OR_RETURN(double fp,
                                records.Get(MetricKey({prefix, base, "fp"})));
            FC_ASSIGN_OR_RETURN(double fn,
                                records.Get(MetricKey({prefix, base, "fn"})));
            FC_ASSIGN_OR_RETURN(double tp,
                                records.Get(MetricKey({prefix, base, "tp"})));
            cm->tn = static_cast<int64_t>(tn);
            cm->fp = static_cast<int64_t>(fp);
            cm->fn = static_cast<int64_t>(fn);
            cm->tp = static_cast<int64_t>(tp);
          }
          for (FairnessMetric metric : kAllMetrics) {
            series->unfairness[UnfairnessKey(group.key, metric)].push_back(
                FairnessGap(metric, confusion));
          }
        }
      }
    }
    return result;
  }

  SuiteOptions options_;
  std::shared_ptr<store::FlatFileStore> store_;
  Spans spans_;
  StoreCounts store_counts_;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameSeries(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

bool SameScores(const ScoreSeries& a, const ScoreSeries& b) {
  if (!SameSeries(a.accuracy, b.accuracy) || !SameSeries(a.f1, b.f1) ||
      a.unfairness.size() != b.unfairness.size()) {
    return false;
  }
  for (const auto& [key, values] : a.unfairness) {
    auto it = b.unfairness.find(key);
    if (it == b.unfairness.end() || !SameSeries(values, it->second)) {
      return false;
    }
  }
  return true;
}

bool SameSlice(const CleaningExperimentResult& a,
               const CleaningExperimentResult& b) {
  if (a.records.ToJson() != b.records.ToJson() ||
      !SameScores(a.dirty, b.dirty) || a.repaired.size() != b.repaired.size()) {
    return false;
  }
  for (const auto& [method, series] : a.repaired) {
    auto it = b.repaired.find(method);
    if (it == b.repaired.end() || !SameScores(series, it->second)) {
      return false;
    }
  }
  return true;
}

bool SameRows(const std::vector<DisparityRow>& a,
              const std::vector<DisparityRow>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const DisparityRow& x = a[i];
    const DisparityRow& y = b[i];
    if (x.dataset != y.dataset || x.detector != y.detector ||
        x.group_key != y.group_key || x.intersectional != y.intersectional ||
        x.privileged_total != y.privileged_total ||
        x.disadvantaged_total != y.disadvantaged_total ||
        x.privileged_flagged != y.privileged_flagged ||
        x.disadvantaged_flagged != y.disadvantaged_flagged ||
        !SameBits(x.g2.statistic, y.g2.statistic) ||
        !SameBits(x.g2.p_value, y.g2.p_value) ||
        x.significant != y.significant) {
      return false;
    }
  }
  return true;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Args {
  std::string mode;
  std::string store_dir;
  std::string out;
};

int Run(const Args& args) {
  const bool warm = args.mode == "warm";
  SuiteOptions options = SuiteOptionsFromEnv();
  auto flat = std::make_shared<store::FlatFileStore>(args.store_dir);
  Replay replay(options, flat);
  Spans& spans = replay.spans();
  SuiteSpec spec = PaperSuite();
  ExperimentGraph graph = ExperimentGraph::Build(spec, SuiteFilter());

  std::map<std::string, GeneratedDataset> datasets;
  std::map<size_t, std::vector<DisparityRow>> figures;
  std::map<size_t, Replay::CellOutcome> cells;
  ScopeResults scope_results;
  Replay::CellCounts counts;
  std::vector<double> cell_seconds;
  std::vector<std::string> table_json;
  auto fail = [](const std::string& what, const Status& status) {
    std::fprintf(stderr, "grid_trace: %s: %s\n", what.c_str(),
                 status.ToString().c_str());
    return 1;
  };

  // The replay: every node of the graph in node order.
  const Clock::time_point replay_start = Clock::now();
  for (const GraphNode& node : graph.nodes()) {
    switch (node.kind) {
      case NodeKind::kDataset: {
        Result<GeneratedDataset> dataset = replay.Dataset(node.dataset);
        if (!dataset.ok()) return fail(node.label, dataset.status());
        datasets.emplace(node.dataset, std::move(*dataset));
        break;
      }
      case NodeKind::kFigure: {
        const GeneratedDataset& dataset = datasets.at(node.dataset);
        if (node.intersectional && !dataset.spec.intersectional) break;
        Result<std::vector<DisparityRow>> rows =
            replay.Disparity(dataset, node.intersectional);
        if (!rows.ok()) return fail(node.label, rows.status());
        figures.emplace(node.id, std::move(*rows));
        break;
      }
      case NodeKind::kCell: {
        const GeneratedDataset& dataset = datasets.at(node.cell.dataset);
        Spans::Scope cell_span(&spans, "exec.cell");
        Result<Replay::CellOutcome> outcome = [&]()
            -> Result<Replay::CellOutcome> {
          if (warm) return replay.LoadCell(dataset, node.cell);
          FC_ASSIGN_OR_RETURN(TunedModelFamily family,
                              ModelFamilyByName(node.cell.model));
          return replay.ComputeCell(dataset, node.cell, family,
                                    GroupDefinitionsFor(dataset.spec),
                                    &counts);
        }();
        cell_seconds.push_back(cell_span.End());
        if (!outcome.ok()) return fail(node.label, outcome.status());
        auto artifact = std::make_shared<CellArtifact>();
        artifact->result = outcome->result;
        scope_results[node.cell.error_type + "|" + node.cell.dataset + "/" +
                      node.cell.model] = artifact;
        cells.emplace(node.id, std::move(*outcome));
        break;
      }
      case NodeKind::kTable: {
        const SuiteUnit& unit = spec.units[node.unit_index];
        const TableSpec& table = unit.tables[node.table_index];
        ScopeResults results;
        const std::string prefix = unit.scope.error_type + "|";
        for (const auto& [key, artifact] : scope_results) {
          if (key.rfind(prefix, 0) == 0) {
            results.emplace(key.substr(prefix.size()), artifact);
          }
        }
        Result<ImpactTable> aggregated = spans.Time("stats", [&] {
          return AggregateImpactTable(results, unit.scope,
                                      table.intersectional, table.metric,
                                      options.study.alpha);
        });
        if (!aggregated.ok()) return fail(node.label, aggregated.status());
        const Impact impacts[3] = {Impact::kWorse, Impact::kInsignificant,
                                   Impact::kBetter};
        std::string json = "{\"id\":" + Quote(node.label) + ",\"counts\":[";
        for (size_t r = 0; r < 3; ++r) {
          json += r ? ",[" : "[";
          for (size_t c = 0; c < 3; ++c) {
            json += StrFormat("%s%lld", c ? "," : "",
                              static_cast<long long>(aggregated->cell(
                                  impacts[r], impacts[c])));
          }
          json += "]";
        }
        table_json.push_back(json + "]}");
        break;
      }
      case NodeKind::kModelTable: {
        // The per-model tallies: one impact test per (pair, method, model,
        // metric) over the single-attribute pairs of every scope.
        Status status = spans.Time("stats", [&]() -> Status {
          for (const StudyScope& scope :
               {MissingScope(), OutlierScope(), MislabelScope()}) {
            FC_ASSIGN_OR_RETURN(std::vector<CleaningMethod> methods,
                                CleaningMethodsFor(scope.error_type));
            double alpha = BonferroniAlpha(options.study.alpha, methods.size());
            for (const std::string& model : AllModelNames()) {
              for (const PairSpec& pair : scope.single_pairs) {
                const CleaningExperimentResult& result =
                    scope_results.at(scope.error_type + "|" + pair.dataset +
                                     "/" + model)
                        ->result;
                for (const auto& [method, series] : result.repaired) {
                  for (FairnessMetric metric :
                       {FairnessMetric::kPredictiveParity,
                        FairnessMetric::kEqualOpportunity}) {
                    FC_RETURN_IF_ERROR(ComputeImpact(result.dirty, series,
                                                     pair.attribute, metric,
                                                     alpha)
                                           .status());
                  }
                }
              }
            }
          }
          return Status::OK();
        });
        if (!status.ok()) return fail(node.label, status);
        break;
      }
    }
  }
  const double replay_s =
      std::chrono::duration<double>(Clock::now() - replay_start).count();

  // Cross-checks against the library's own code path, outside the replay
  // time.
  const Clock::time_point check_start = Clock::now();
  size_t slots_checked = 0;
  size_t figures_checked = 0;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind == NodeKind::kFigure && figures.count(node.id) != 0) {
      Rng rng(options.study.seed + (node.intersectional ? 19 : 17));
      Result<std::vector<DisparityRow>> expected =
          AnalyzeDisparities(datasets.at(node.dataset), node.intersectional,
                             DisparityOptions(), &rng);
      if (!expected.ok()) return fail(node.label, expected.status());
      if (!SameRows(figures.at(node.id), *expected)) {
        std::fprintf(stderr, "grid_trace: figure %s differs from "
                     "AnalyzeDisparities\n", node.label.c_str());
        return 1;
      }
      ++figures_checked;
    }
    if (node.kind == NodeKind::kCell && !warm) {
      const Replay::CellOutcome& outcome = cells.at(node.id);
      if (!outcome.slot0.has_value()) continue;
      const GeneratedDataset& dataset = datasets.at(node.cell.dataset);
      Result<TunedModelFamily> family = ModelFamilyByName(node.cell.model);
      if (!family.ok()) return fail(node.label, family.status());
      std::vector<GroupDefinition> groups = GroupDefinitionsFor(dataset.spec);
      Result<CleaningExperimentResult> expected = RunCleaningRepeatSlice(
          dataset, node.cell.error_type, *family, options.study, 0,
          outcome.slot0_salt, &groups);
      if (!expected.ok()) return fail(node.label, expected.status());
      if (!SameSlice(*outcome.slot0, *expected)) {
        std::fprintf(stderr, "grid_trace: %s slot 0 differs from "
                     "RunCleaningRepeatSlice\n", node.label.c_str());
        return 1;
      }
      ++slots_checked;
    }
  }
  const double check_s =
      std::chrono::duration<double>(Clock::now() - check_start).count();

  // Cost of one span, so the summary can state what the instrumentation
  // added to the replay.
  uint64_t span_count = 0;
  for (const auto& [name, layer] : spans.layers()) span_count += layer.calls;
  constexpr int kCalibrationSpans = 200000;
  Spans calibration;
  const Clock::time_point calibration_start = Clock::now();
  for (int i = 0; i < kCalibrationSpans; ++i) {
    Spans::Scope span(&calibration, "ml.tune.xgboost");
  }
  const double span_cost_s =
      std::chrono::duration<double>(Clock::now() - calibration_start)
          .count() /
      kCalibrationSpans;

  // Summary.
  std::string out = "{";
  out += "\"mode\":" + Quote(args.mode);
  out += StrFormat(",\"replay_s\":%.9g,\"check_s\":%.9g", replay_s, check_s);
  out += StrFormat(",\"spans\":%llu,\"span_cost_s\":%.9g",
                   static_cast<unsigned long long>(span_count), span_cost_s);
  out += StrFormat(
      ",\"checks\":{\"slots\":%zu,\"figures\":%zu}", slots_checked,
      figures_checked);
  out += StrFormat(
      ",\"counts\":{\"repeats_run\":%llu,\"retries\":%llu,\"skips\":%llu}",
      static_cast<unsigned long long>(counts.repeats_run),
      static_cast<unsigned long long>(counts.retries),
      static_cast<unsigned long long>(counts.skips));
  out += StrFormat(",\"store\":{\"bytes\":%llu,\"records\":%llu}",
                   static_cast<unsigned long long>(
                       replay.store_counts().bytes),
                   static_cast<unsigned long long>(
                       replay.store_counts().records));
  out += ",\"layers\":{";
  bool first = true;
  for (const auto& [name, layer] : spans.layers()) {
    out += StrFormat("%s%s:{\"self_s\":%.9g,\"total_s\":%.9g,\"calls\":%llu}",
                     first ? "" : ",", Quote(name).c_str(), layer.self_s,
                     layer.total_s,
                     static_cast<unsigned long long>(layer.calls));
    first = false;
  }
  out += "},\"cell_s\":[";
  for (size_t i = 0; i < cell_seconds.size(); ++i) {
    out += StrFormat("%s%.9g", i ? "," : "", cell_seconds[i]);
  }
  out += "],\"cells\":[";
  first = true;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind != NodeKind::kCell) continue;
    const Replay::CellOutcome& outcome = cells.at(node.id);
    out += StrFormat("%s{\"id\":%s,\"sha256\":%s,\"class\":%s}",
                     first ? "" : ",", Quote(node.label).c_str(),
                     Quote(Sha256Hex(outcome.record)).c_str(),
                     Quote(CellClassName(outcome.cell_class)).c_str());
    first = false;
  }
  out += "],\"tables\":[";
  for (size_t i = 0; i < table_json.size(); ++i) {
    out += (i ? "," : "") + table_json[i];
  }
  out += "]}\n";
  Status written = WriteFileAtomic(args.out, out);
  if (!written.ok()) return fail(args.out, written);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    if (flag == "--mode") args.mode = argv[i + 1];
    else if (flag == "--store-dir") args.store_dir = argv[i + 1];
    else if (flag == "--out") args.out = argv[i + 1];
  }
  if ((args.mode != "compute" && args.mode != "warm") ||
      args.store_dir.empty() || args.out.empty()) {
    std::fprintf(stderr,
                 "usage: grid_trace --mode compute|warm --store-dir <dir> "
                 "--out <json>\n");
    return 1;
  }
  return Run(args);
}
