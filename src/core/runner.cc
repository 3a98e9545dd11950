#include "core/runner.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <string_view>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/strings.h"
#include "data/split.h"
#include "ml/encoder.h"
#include "obs/trace.h"
#include "stats/descriptive.h"
#include "stats/tests.h"

namespace fairclean {

namespace {

// Stable 64-bit FNV-1a hash; std::hash is not guaranteed stable across
// implementations, and repeat seeds must be reproducible.
uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// "<dataset>/<error type>/<version>/<model>/r<repeat>": the prefix of
// every record key of one evaluated data version ("dirty" or a cleaning
// method's name) in one repeat.
std::string RecordPrefix(const CleaningExperimentResult& cell,
                         const std::string& version, size_t repeat) {
  return StrFormat("%s/%s/%s/%s/r%zu", cell.dataset.c_str(),
                   cell.error_type.c_str(), version.c_str(),
                   cell.model.c_str(), repeat);
}

constexpr FairnessMetric kAllMetrics[] = {
    FairnessMetric::kPredictiveParity,
    FairnessMetric::kEqualOpportunity,
    FairnessMetric::kDemographicParity,
    FairnessMetric::kFalsePositiveRateParity,
    FairnessMetric::kAccuracyParity,
};

// One trained-and-scored model: overall metrics plus per-group confusions.
struct EvalOutcome {
  double accuracy = 0.0;
  double f1 = 0.0;
  double best_param = 0.0;
  std::map<std::string, GroupConfusion> groups;
};

Result<EvalOutcome> TrainAndEvaluate(const PreparedData& data,
                                     const DatasetSpec& spec,
                                     const std::vector<GroupDefinition>& groups,
                                     const TunedModelFamily& family,
                                     size_t cv_folds, Rng* rng) {
  obs::TraceSpan span("core", [&] {
    return "TrainAndEvaluate " + spec.name + " " + family.name;
  });
  std::vector<std::string> features = spec.FeatureColumns(data.train);
  FeatureEncoder encoder;
  FC_RETURN_IF_ERROR(encoder.Fit(data.train, features));
  FC_ASSIGN_OR_RETURN(Matrix train_x, encoder.Transform(data.train));
  FC_ASSIGN_OR_RETURN(Matrix test_x, encoder.Transform(data.test));
  FC_ASSIGN_OR_RETURN(std::vector<int> train_y,
                      ExtractBinaryLabels(data.train, spec.label));
  FC_ASSIGN_OR_RETURN(std::vector<int> test_y,
                      ExtractBinaryLabels(data.test, spec.label));

  Rng tune_rng = rng->Fork(0x70e0);
  FC_ASSIGN_OR_RETURN(TuneOutcome tuned,
                      TuneAndFit(family, train_x, train_y, cv_folds,
                                 &tune_rng));
  std::vector<int> predictions = tuned.model->Predict(test_x);

  EvalOutcome outcome;
  outcome.accuracy = AccuracyScore(test_y, predictions);
  outcome.f1 = F1Score(test_y, predictions);
  outcome.best_param = tuned.best_param;
  for (const GroupDefinition& group : groups) {
    GroupAssignment assignment;
    if (group.intersectional) {
      FC_ASSIGN_OR_RETURN(
          assignment, IntersectionalGroups(data.test, group.first,
                                           group.second));
    } else {
      FC_ASSIGN_OR_RETURN(assignment,
                          SingleAttributeGroups(data.test, group.first));
    }
    FC_ASSIGN_OR_RETURN(GroupConfusion confusion,
                        ComputeGroupConfusion(test_y, predictions,
                                              assignment));
    outcome.groups.emplace(group.key, confusion);
  }
  return outcome;
}

void RecordOutcome(const std::string& prefix, const EvalOutcome& outcome,
                   const std::vector<GroupDefinition>& groups,
                   ResultStore* records) {
  records->Put(MetricKey({prefix, "test_acc"}), outcome.accuracy);
  records->Put(MetricKey({prefix, "test_f1"}), outcome.f1);
  records->Put(MetricKey({prefix, "best_param"}), outcome.best_param);
  for (const GroupDefinition& group : groups) {
    const GroupConfusion& confusion = outcome.groups.at(group.key);
    const struct {
      const char* suffix;
      const ConfusionMatrix& cm;
    } sides[2] = {{"priv", confusion.privileged},
                  {"dis", confusion.disadvantaged}};
    for (const auto& side : sides) {
      std::string base = group.key + "_" + side.suffix;
      records->Put(MetricKey({prefix, base, "tn"}),
                   static_cast<double>(side.cm.tn));
      records->Put(MetricKey({prefix, base, "fp"}),
                   static_cast<double>(side.cm.fp));
      records->Put(MetricKey({prefix, base, "fn"}),
                   static_cast<double>(side.cm.fn));
      records->Put(MetricKey({prefix, base, "tp"}),
                   static_cast<double>(side.cm.tp));
    }
  }
}

}  // namespace

std::vector<GroupDefinition> GroupDefinitionsFor(const DatasetSpec& spec) {
  std::vector<GroupDefinition> groups;
  for (const SensitiveAttribute& attribute : spec.sensitive_attributes) {
    GroupDefinition group;
    group.key = attribute.name;
    group.intersectional = false;
    group.first = attribute.privileged;
    groups.push_back(std::move(group));
  }
  if (spec.intersectional && spec.sensitive_attributes.size() >= 2) {
    GroupDefinition group;
    group.key = spec.sensitive_attributes[0].name + "*" +
                spec.sensitive_attributes[1].name;
    group.intersectional = true;
    group.first = spec.sensitive_attributes[0].privileged;
    group.second = spec.sensitive_attributes[1].privileged;
    groups.push_back(std::move(group));
  }
  return groups;
}

std::string UnfairnessKey(const std::string& group_key,
                          FairnessMetric metric) {
  return group_key + "/" + FairnessMetricShortName(metric);
}

Result<CleaningExperimentResult> RunCleaningRepeatSlice(
    const GeneratedDataset& dataset, const std::string& error_type,
    const TunedModelFamily& family, const StudyOptions& options,
    size_t repeat, uint64_t seed_salt,
    const std::vector<GroupDefinition>* groups) {
  obs::TraceSpan span("core", [&] {
    return StrFormat("repeat %s/%s/%s r%zu", dataset.spec.name.c_str(),
                     error_type.c_str(), family.name.c_str(), repeat);
  });
  if (!dataset.spec.HasErrorType(error_type)) {
    return Status::InvalidArgument(
        StrFormat("dataset %s has no error type %s",
                  dataset.spec.name.c_str(), error_type.c_str()));
  }
  FC_ASSIGN_OR_RETURN(std::vector<CleaningMethod> methods,
                      CleaningMethodsFor(error_type));

  CleaningExperimentResult result;
  result.dataset = dataset.spec.name;
  result.error_type = error_type;
  result.model = family.name;
  // A caller may pass group definitions it already derived; otherwise the
  // slice derives them here. Both are pure functions of the spec, so the
  // result is identical either way.
  result.groups =
      groups != nullptr ? *groups : GroupDefinitionsFor(dataset.spec);

  size_t total_rows = dataset.frame.num_rows();
  size_t sample_size = std::min(options.sample_size, total_rows);

  // Stable per-repeat seed: reruns of the same configuration reproduce
  // identical numbers, and different configurations are decorrelated.
  // Salt 0 must keep the historical formula so existing caches stay valid.
  uint64_t repeat_seed =
      options.seed ^ Fnv1a(StrFormat("%s/%s/%s/%zu",
                                     dataset.spec.name.c_str(),
                                     error_type.c_str(),
                                     family.name.c_str(), repeat));
  if (seed_salt != 0) {
    repeat_seed ^= Fnv1a(StrFormat("retry/%llu",
                                   static_cast<unsigned long long>(seed_salt)));
  }
  Rng rng(repeat_seed);

  std::vector<size_t> sample =
      rng.SampleWithoutReplacement(total_rows, sample_size);
  DataFrame sampled = dataset.frame.Take(sample);
  TrainTestIndices split =
      SplitTrainTest(sampled.num_rows(), options.test_fraction, &rng);
  DataFrame train_raw = sampled.Take(split.train);
  DataFrame test_raw = sampled.Take(split.test);

  FC_ASSIGN_OR_RETURN(
      PreparedData base,
      PrepareBase(train_raw, test_raw, dataset.spec, error_type));
  FC_ASSIGN_OR_RETURN(PreparedData dirty,
                      MakeDirtyVersion(base, dataset.spec, error_type));

  Rng dirty_rng = rng.Fork(0xd127);
  FC_ASSIGN_OR_RETURN(
      EvalOutcome dirty_outcome,
      TrainAndEvaluate(dirty, dataset.spec, result.groups, family,
                       options.cv_folds, &dirty_rng));
  // Fault-injection site at the numeric boundary: a fired "numeric" fault
  // turns the score into NaN, which the study driver must catch as a
  // degenerate repeat (retry/skip) before it poisons the t-tests.
  dirty_outcome.accuracy =
      FaultInjector::Global().CorruptScore("numeric", dirty_outcome.accuracy);
  RecordOutcome(RecordPrefix(result, "dirty", repeat), dirty_outcome,
                result.groups, &result.records);

  for (const CleaningMethod& method : methods) {
    Rng method_rng = rng.Fork(Fnv1a(method.Name()));
    FC_ASSIGN_OR_RETURN(
        PreparedData repaired,
        MakeRepairedVersion(base, dataset.spec, method, &method_rng));
    Rng eval_rng = rng.Fork(Fnv1a(method.Name() + "/eval"));
    FC_ASSIGN_OR_RETURN(
        EvalOutcome repaired_outcome,
        TrainAndEvaluate(repaired, dataset.spec, result.groups, family,
                         options.cv_folds, &eval_rng));
    RecordOutcome(RecordPrefix(result, method.Name(), repeat),
                  repaired_outcome, result.groups, &result.records);
  }
  // The score series are read back from the records just written, the way
  // a cache hit or a resumed slice reads them: counts round-trip exactly
  // through doubles, so both paths score every repeat bit for bit alike.
  FC_RETURN_IF_ERROR(
      AppendStoredRepeat(result.records, methods, repeat, &result));
  return result;
}

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
    key = RecordPrefix(*result, version, repeat) + "__";
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

namespace {

void AppendSeries(const ScoreSeries& slice, ScoreSeries* target) {
  target->accuracy.insert(target->accuracy.end(), slice.accuracy.begin(),
                          slice.accuracy.end());
  target->f1.insert(target->f1.end(), slice.f1.begin(), slice.f1.end());
  for (const auto& [key, values] : slice.unfairness) {
    std::vector<double>& series = target->unfairness[key];
    series.insert(series.end(), values.begin(), values.end());
  }
}

}  // namespace

Status AppendRepeatSlice(const CleaningExperimentResult& slice,
                         CleaningExperimentResult* target) {
  if (target->dataset.empty() && target->repaired.empty() &&
      target->dirty.accuracy.empty()) {
    target->dataset = slice.dataset;
    target->error_type = slice.error_type;
    target->model = slice.model;
    target->groups = slice.groups;
  } else if (target->dataset != slice.dataset ||
             target->error_type != slice.error_type ||
             target->model != slice.model) {
    return Status::InvalidArgument(StrFormat(
        "slice %s/%s/%s does not match experiment %s/%s/%s",
        slice.dataset.c_str(), slice.error_type.c_str(), slice.model.c_str(),
        target->dataset.c_str(), target->error_type.c_str(),
        target->model.c_str()));
  }
  AppendSeries(slice.dirty, &target->dirty);
  for (const auto& [method, series] : slice.repaired) {
    AppendSeries(series, &target->repaired[method]);
  }
  target->records.MergeFrom(slice.records);
  return Status::OK();
}

Result<CleaningExperimentResult> RunCleaningExperiment(
    const GeneratedDataset& dataset, const std::string& error_type,
    const TunedModelFamily& family, const StudyOptions& options) {
  CleaningExperimentResult result;
  for (size_t repeat = 0; repeat < options.num_repeats; ++repeat) {
    FC_ASSIGN_OR_RETURN(
        CleaningExperimentResult slice,
        RunCleaningRepeatSlice(dataset, error_type, family, options, repeat));
    FC_RETURN_IF_ERROR(AppendRepeatSlice(slice, &result));
  }
  if (options.num_repeats == 0) {
    // Preserve metadata for the degenerate zero-repeat request.
    result.dataset = dataset.spec.name;
    result.error_type = error_type;
    result.model = family.name;
    result.groups = GroupDefinitionsFor(dataset.spec);
  }
  return result;
}

Result<ImpactOutcome> ComputeImpact(const ScoreSeries& dirty_series,
                                    const ScoreSeries& method_series,
                                    const std::string& group_key,
                                    FairnessMetric metric, double alpha) {
  std::string key = UnfairnessKey(group_key, metric);
  auto dirty_it = dirty_series.unfairness.find(key);
  auto method_it = method_series.unfairness.find(key);
  if (dirty_it == dirty_series.unfairness.end() ||
      method_it == method_series.unfairness.end()) {
    return Status::NotFound("no unfairness series for " + key);
  }

  ImpactOutcome outcome;
  // Fairness: paired t-test on the signed gaps (the paper's metric); if
  // the shift is significant, cleaning improved fairness exactly when the
  // mean gap moved closer to zero.
  FC_ASSIGN_OR_RETURN(TestResult fairness_test,
                      PairedTTest(method_it->second, dirty_it->second));
  FC_ASSIGN_OR_RETURN(double mean_dirty_unfair, Mean(dirty_it->second));
  FC_ASSIGN_OR_RETURN(double mean_method_unfair, Mean(method_it->second));
  if (!fairness_test.SignificantAt(alpha) ||
      std::abs(mean_method_unfair) == std::abs(mean_dirty_unfair)) {
    outcome.fairness = Impact::kInsignificant;
  } else {
    outcome.fairness = std::abs(mean_method_unfair) <
                               std::abs(mean_dirty_unfair)
                           ? Impact::kBetter
                           : Impact::kWorse;
  }
  FC_ASSIGN_OR_RETURN(outcome.accuracy,
                      ClassifyImpact(dirty_series.accuracy,
                                     method_series.accuracy, alpha,
                                     /*higher_is_better=*/true));
  outcome.unfairness_delta =
      std::abs(mean_method_unfair) - std::abs(mean_dirty_unfair);
  FC_ASSIGN_OR_RETURN(double mean_dirty_acc, Mean(dirty_series.accuracy));
  FC_ASSIGN_OR_RETURN(double mean_method_acc, Mean(method_series.accuracy));
  outcome.accuracy_delta = mean_method_acc - mean_dirty_acc;
  return outcome;
}

}  // namespace fairclean
