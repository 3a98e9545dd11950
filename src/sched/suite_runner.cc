#include "sched/suite_runner.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/env.h"
#include "common/fault_injection.h"
#include "common/safe_io.h"
#include "common/strings.h"
#include "core/cleaning.h"
#include "obs/json_lite.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "sched/figure_record.h"
#include "stats/descriptive.h"
#include "stats/tests.h"

namespace fairclean {
namespace sched {

namespace {

// Scale knobs below these values cannot run at all: a study needs rows,
// k-fold tuning needs two folds and the paired t-tests two repeats.
Result<int64_t> GetEnvScale(const char* knob, int64_t fallback,
                            int64_t minimum) {
  FC_ASSIGN_OR_RETURN(int64_t value, GetEnvCount(knob, fallback));
  if (value < minimum) {
    return Status::InvalidArgument(
        StrFormat("%s must be at least %lld, got %lld", knob,
                  static_cast<long long>(minimum),
                  static_cast<long long>(value)));
  }
  return value;
}

}  // namespace

Result<SuiteOptions> TrySuiteOptionsFromEnv() {
  SuiteOptions options;
  FC_ASSIGN_OR_RETURN(int64_t sample,
                      GetEnvScale("FAIRCLEAN_SAMPLE", 3500, 1));
  options.study.sample_size = static_cast<size_t>(sample);
  FC_ASSIGN_OR_RETURN(int64_t repeats, GetEnvScale("FAIRCLEAN_REPEATS", 16, 2));
  options.study.num_repeats = static_cast<size_t>(repeats);
  FC_ASSIGN_OR_RETURN(int64_t folds, GetEnvScale("FAIRCLEAN_FOLDS", 3, 2));
  options.study.cv_folds = static_cast<size_t>(folds);
  // A larger holdout than the library default stabilizes the group-wise
  // precision/recall estimates that the fairness metrics compare.
  options.study.test_fraction = 0.3;
  FC_ASSIGN_OR_RETURN(int64_t seed, GetEnvCount("FAIRCLEAN_SEED", 42));
  options.study.seed = static_cast<uint64_t>(seed);
  options.cache_dir = GetEnvString("FAIRCLEAN_CACHE_DIR", "fairclean_cache");
  FC_ASSIGN_OR_RETURN(
      int64_t max_retries,
      GetEnvCount("FAIRCLEAN_MAX_RETRIES",
                  static_cast<int64_t>(options.max_retries)));
  options.max_retries = static_cast<size_t>(max_retries);
  FC_ASSIGN_OR_RETURN(
      options.time_budget_s,
      GetEnvBudgetSeconds("FAIRCLEAN_TIME_BUDGET_S", options.time_budget_s));
  FC_ASSIGN_OR_RETURN(int64_t threads, GetEnvCount("FAIRCLEAN_THREADS", 0));
  options.threads = static_cast<size_t>(threads);
  options.report_path = GetEnvString("FAIRCLEAN_SUITE_REPORT", "");
  return options;
}

SuiteOptions SuiteOptionsFromEnv() {
  Result<SuiteOptions> options = TrySuiteOptionsFromEnv();
  // ValueOrDie prints the offending knob and aborts on a parse error.
  return std::move(options).ValueOrDie();
}

Result<ImpactTable> AggregateImpactTable(const ScopeResults& results,
                                         const StudyScope& scope,
                                         bool intersectional,
                                         FairnessMetric metric, double alpha) {
  ImpactTable table;
  FC_ASSIGN_OR_RETURN(std::vector<CleaningMethod> methods,
                      CleaningMethodsFor(scope.error_type));
  double adjusted = BonferroniAlpha(alpha, methods.size());

  auto add_configurations = [&](const CleaningExperimentResult& result,
                                const std::string& group_key) -> Status {
    for (const auto& [method, series] : result.repaired) {
      FC_ASSIGN_OR_RETURN(
          ImpactOutcome impact,
          ComputeImpact(result.dirty, series, group_key, metric, adjusted));
      table.Add(impact.fairness, impact.accuracy);
    }
    return Status::OK();
  };

  for (const std::string& model : AllModelNames()) {
    if (!intersectional) {
      for (const PairSpec& pair : scope.single_pairs) {
        auto it = results.find(pair.dataset + "/" + model);
        if (it == results.end()) {
          return Status::NotFound("no results for " + pair.dataset + "/" +
                                  model);
        }
        FC_RETURN_IF_ERROR(
            add_configurations(it->second->result, pair.attribute));
      }
    } else {
      for (const std::string& dataset : scope.intersectional_datasets) {
        auto it = results.find(dataset + "/" + model);
        if (it == results.end()) {
          return Status::NotFound("no results for " + dataset + "/" + model);
        }
        const CleaningExperimentResult& result = it->second->result;
        std::string group_key;
        for (const GroupDefinition& group : result.groups) {
          if (group.intersectional) group_key = group.key;
        }
        if (group_key.empty()) {
          return Status::InvalidArgument(
              "dataset has no intersectional group: " + dataset);
        }
        FC_RETURN_IF_ERROR(add_configurations(result, group_key));
      }
    }
  }
  return table;
}

namespace {

/// One single-attribute impact test of a scope: a (model, pair, cleaning
/// method, fairness metric) configuration and its classified outcome.
struct SingleAttributeImpact {
  const std::string& model;
  const PairSpec& pair;
  const CleaningMethod& method;
  FairnessMetric metric;
  ImpactOutcome outcome;
};

/// Runs ComputeImpact for every (model, single pair, cleaning method,
/// PP/EO) configuration of `scope` and hands each outcome to `fold`: the
/// one loop behind Table XIV and the deep dive. Errors as FoldDeepDive.
Status ForEachSingleAttributeImpact(
    const ScopeResults& results, const StudyScope& scope, double alpha,
    const std::function<void(const SingleAttributeImpact&)>& fold) {
  FC_ASSIGN_OR_RETURN(std::vector<CleaningMethod> methods,
                      CleaningMethodsFor(scope.error_type));
  const double adjusted = BonferroniAlpha(alpha, methods.size());
  for (const std::string& model : AllModelNames()) {
    for (const PairSpec& pair : scope.single_pairs) {
      auto it = results.find(pair.dataset + "/" + model);
      if (it == results.end()) {
        return Status::NotFound("no results for " + pair.dataset + "/" +
                                model);
      }
      const CleaningExperimentResult& result = it->second->result;
      for (const CleaningMethod& method : methods) {
        auto series = result.repaired.find(method.Name());
        if (series == result.repaired.end()) {
          return Status::NotFound("no " + method.Name() + " results for " +
                                  pair.dataset + "/" + model);
        }
        for (FairnessMetric metric : {FairnessMetric::kPredictiveParity,
                                      FairnessMetric::kEqualOpportunity}) {
          FC_ASSIGN_OR_RETURN(ImpactOutcome outcome,
                              ComputeImpact(result.dirty, series->second,
                                            pair.attribute, metric,
                                            adjusted));
          fold({model, pair, method, metric, outcome});
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status FoldDeepDive(const ScopeResults& results, const StudyScope& scope,
                    double alpha, DeepDive* deep_dive) {
  for (const auto& [key, artifact] : results) {
    FC_ASSIGN_OR_RETURN(double mean, Mean(artifact->result.dirty.accuracy));
    deep_dive->dirty_accuracy[key].push_back(mean);
  }
  return ForEachSingleAttributeImpact(
      results, scope, alpha, [&](const SingleAttributeImpact& impact) {
        const Impact fairness = impact.outcome.fairness;
        DeepDive::Case& outcome = deep_dive->cases[StrFormat(
            "%s/%s/%s/%s", FairnessMetricShortName(impact.metric),
            impact.pair.dataset.c_str(), impact.pair.attribute.c_str(),
            scope.error_type.c_str())];
        if (fairness != Impact::kWorse) outcome.non_worsening = true;
        if (fairness == Impact::kBetter) {
          outcome.improving = true;
          if (impact.outcome.accuracy == Impact::kBetter) {
            outcome.both_improving = true;
          }
        }
        if (scope.error_type == "missing_values") {
          // Every imputation gets a row, so a zero-win one still prints.
          int64_t& wins = deep_dive->categorical_wins[CategoricalImputeName(
              impact.method.categorical_impute)];
          if (fairness == Impact::kBetter) ++wins;
        }
        if (scope.error_type == "outliers") {
          auto& [negative, total] =
              deep_dive->detector_negative[impact.method.detector];
          ++total;
          if (fairness == Impact::kWorse) ++negative;
        }
      });
}

namespace {

/// The qualitative shape check against the paper: the share of
/// configurations whose fairness got worse vs better, in percent, for the
/// paper's table and the measured one, and whether the same direction
/// dominates in both. The printed tables and the report's "shape_match"
/// both read it.
struct ShapeCheck {
  double paper_worse = 0.0;
  double paper_better = 0.0;
  double measured_worse = 0.0;
  double measured_better = 0.0;

  bool paper_worse_dominates() const { return paper_worse > paper_better; }
  bool measured_worse_dominates() const {
    return measured_worse > measured_better;
  }
  bool match() const {
    return paper_worse_dominates() == measured_worse_dominates();
  }
};

ShapeCheck CheckShape(const ImpactTable& measured,
                      const PaperTable& reference) {
  ShapeCheck shape;
  shape.paper_worse = reference.cells[0][0] + reference.cells[0][1] +
                      reference.cells[0][2];
  shape.paper_better = reference.cells[2][0] + reference.cells[2][1] +
                       reference.cells[2][2];
  int64_t total = measured.Total();
  if (total) {
    shape.measured_worse = 100.0 * measured.RowTotal(Impact::kWorse) / total;
    shape.measured_better =
        100.0 * measured.RowTotal(Impact::kBetter) / total;
  }
  return shape;
}

}  // namespace

void PrintTableWithReference(const ImpactTable& measured,
                             const PaperTable& reference,
                             const std::string& title) {
  std::printf("%s\n", measured.Format(title).c_str());
  std::printf("paper reference (%s):\n", reference.label);
  const char* row_labels[3] = {"fairness worse", "fairness insign.",
                               "fairness better"};
  for (size_t r = 0; r < 3; ++r) {
    std::printf("%-22s |", row_labels[r]);
    for (size_t c = 0; c < 3; ++c) {
      std::printf(" %5.1f%%        ", reference.cells[r][c]);
    }
    std::printf("\n");
  }

  const ShapeCheck shape = CheckShape(measured, reference);
  std::printf(
      "shape check: fairness worse vs better — paper %.1f%% / %.1f%% (%s), "
      "measured %.1f%% / %.1f%% (%s) -> %s\n\n",
      shape.paper_worse, shape.paper_better,
      shape.paper_worse_dominates() ? "worse dominates" : "better dominates",
      shape.measured_worse, shape.measured_better,
      shape.measured_worse_dominates() ? "worse dominates"
                                       : "better dominates",
      shape.match() ? "MATCH" : "MISMATCH");
}

int CellCostRank(const CellKey& cell) {
  if (cell.model == "xgboost") return 30;
  if (cell.model == "knn") return 20;
  return 10;  // log-reg and anything unknown: cheap, fills the tail
}

SuiteScheduler::SuiteScheduler(SuiteOptions options)
    : options_(std::move(options)),
      width_(options_.threads != 0 ? options_.threads
                                   : ThreadPool::DefaultThreadCount()),
      figure_records_loaded_(obs::MetricsRegistry::Global().GetCounter(
          "sched.figure_records_loaded")),
      figure_records_written_(obs::MetricsRegistry::Global().GetCounter(
          "sched.figure_records_written")),
      datasets_generated_(obs::MetricsRegistry::Global().GetCounter(
          "sched.datasets_generated")),
      start_(std::chrono::steady_clock::now()),
      store_(options_.cache_dir) {
  if (width_ > 1) pool_ = std::make_unique<ThreadPool>(width_);
}

double SuiteScheduler::ElapsedSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

const store::FlatFileStore& SuiteScheduler::Store() const {
  std::error_code ec;
  std::filesystem::create_directories(options_.cache_dir, ec);
  return store_;
}

Result<exec::StudyDriverOptions> SuiteScheduler::CellDriverOptions() const {
  exec::StudyDriverOptions driver_options;
  driver_options.study = options_.study;
  driver_options.cache_dir = options_.cache_dir;
  driver_options.max_retries = options_.max_retries;
  if (!options_.cache_dir.empty()) Store();  // creates the cache dir
  if (options_.time_budget_s > 0.0) {
    double remaining = options_.time_budget_s - ElapsedSeconds();
    if (remaining <= 0.0) {
      return Status::DeadlineExceeded("suite time budget exhausted");
    }
    driver_options.time_budget_s = remaining;
  }
  return driver_options;
}

void SuiteScheduler::Accumulate(const exec::RunDiagnostics& diagnostics) {
  std::lock_guard<std::mutex> lock(diag_mutex_);
  total_.experiments += diagnostics.experiments;
  total_.cache_hits += diagnostics.cache_hits;
  total_.slices_reused += diagnostics.slices_reused;
  total_.repeats_run += diagnostics.repeats_run;
  total_.retries += diagnostics.retries;
  total_.skips += diagnostics.skips;
  total_.corrupt_quarantined += diagnostics.corrupt_quarantined;
  total_.checkpoints += diagnostics.checkpoints;
  total_.budget_exhausted |= diagnostics.budget_exhausted;
  for (const auto& [stage, seconds] : diagnostics.stage_seconds) {
    total_.stage_seconds[stage] += seconds;
  }
  for (const auto& [stage, seconds] : diagnostics.stage_cpu_seconds) {
    total_.stage_cpu_seconds[stage] += seconds;
  }
}

exec::RunDiagnostics SuiteScheduler::AggregateDiagnostics() const {
  std::lock_guard<std::mutex> lock(diag_mutex_);
  return total_;
}

void SuiteScheduler::PrintRunSummary() const {
  std::printf("%s", AggregateDiagnostics().Format().c_str());
  if (obs::LogEnabled(obs::LogLevel::kInfo)) {
    std::printf("process metrics:\n%s",
                obs::MetricsRegistry::Global().FormatSummary().c_str());
  }
}

int SuiteScheduler::ReportFailure(const Status& status) const {
  std::fprintf(stderr, "suite run failed: %s\n", status.ToString().c_str());
  std::fprintf(stderr, "%s", AggregateDiagnostics().Format().c_str());
  if (status.code() == StatusCode::kDeadlineExceeded) {
    std::fprintf(stderr,
                 "completed repeats are checkpointed in %s — re-run to "
                 "resume where this run stopped\n",
                 options_.cache_dir.c_str());
    return kExitResumable;
  }
  return 1;
}

Result<CellArtifact> SuiteScheduler::ProduceCell(const CellKey& cell,
                                                 const DatasetHandle& dataset) {
  const size_t wave = current_wave_;
  obs::TraceSpan span("sched", [&cell, wave] {
    return wave == kNoWave
               ? "cell " + cell.Id()
               : StrFormat("cell w%zu %s", wave, cell.Id().c_str());
  });
  FC_ASSIGN_OR_RETURN(exec::StudyDriverOptions driver_options,
                      CellDriverOptions());
  driver_options.checkpoint_hook = cell_checkpoint_hook_;
  // The artifact's sha256 hashes the record bytes the driver verified or
  // wrote, so a cache hit reads its record once.
  exec::StudyDriver driver(driver_options);
  CellArtifact artifact;
  Result<CleaningExperimentResult> result = driver.RunOrLoad(
      dataset.spec(), [&dataset] { return dataset.Rows(); },
      cell.error_type, cell.model, &artifact.sha256);
  const exec::RunDiagnostics& diagnostics = driver.diagnostics();
  Accumulate(diagnostics);
  if (!options_.cache_dir.empty()) {
    artifact.cache_file = exec::StudyDriver::CacheKey(
        driver_options, cell.dataset, cell.error_type, cell.model);
  }
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kDeadlineExceeded &&
        !options_.cache_dir.empty()) {
      // Sticky attempt marker: the cell hit the budget with resumable
      // state. A later attempt that completes the cell overwrites it, so
      // final-success reports stay byte-identical to fresh runs.
      store_
          .Write(ClassKeyFor(artifact.cache_file),
                 std::string(CellClassName(CellClass::kBudgetExceeded)) + "\n")
          .ok();
    }
    return result.status();
  }
  artifact.result = std::move(*result);
  artifact.cell_class = ClassifyProducedCell(
      cell, diagnostics, options_.cache_dir.empty() ? nullptr : &store_,
      artifact.cache_file);
  return artifact;
}

CellClass SuiteScheduler::ClassifyProducedCell(
    const CellKey& cell, const exec::RunDiagnostics& diag,
    const store::FlatFileStore* blob, const std::string& cache_key) {
  // Each cell runs its own driver, so the diagnostics describe exactly
  // this production. A pure cache hit preserves the class recorded by
  // whichever run computed the cell (absent record: a pre-classifier
  // cache — pass); a computed (fresh or slice-resumed) cell classifies
  // from what this run observed and persists the verdict next to the
  // cache record, best-effort like the slice writes.
  const bool cache_hit = diag.cache_hits > 0;
  if (cache_hit && blob != nullptr) {
    CellClass cls = CellClass::kPass;
    Result<std::string> recorded = blob->Read(ClassKeyFor(cache_key));
    if (recorded.ok()) {
      std::string name = *recorded;
      while (!name.empty() && (name.back() == '\n' || name.back() == '\r')) {
        name.pop_back();
      }
      Result<CellClass> parsed = CellClassFromName(name);
      if (parsed.ok()) cls = *parsed;
    }
    return cls;
  }
  CellClass cls = CellClass::kPass;
  if (diag.skips > 0) {
    cls = CellClass::kSkipped;
  } else if (diag.retries > 0) {
    cls = CellClass::kDegenerateRetry;
  }
  if (blob != nullptr) {
    Status written =
        blob->Write(ClassKeyFor(cache_key),
                    std::string(CellClassName(cls)) + "\n");
    if (!written.ok()) {
      FC_LOG_WARN("sched", "class record write failed for %s: %s",
                  cell.Id().c_str(), written.ToString().c_str());
    }
  }
  return cls;
}

Result<std::vector<DisparityRow>> SuiteScheduler::FigurePanel(
    const DatasetHandle& dataset, bool intersectional) {
  if (options_.cache_dir.empty()) {
    return ComputeDisparity(dataset, intersectional);
  }
  const std::string& name = dataset.spec().name;
  const std::string key =
      FigureRecordKey(name, intersectional, options_.study.seed);
  std::optional<std::vector<DisparityRow>> loaded =
      LoadFigureRecord(key, name, intersectional);
  if (loaded.has_value()) return std::move(*loaded);
  FC_ASSIGN_OR_RETURN(std::vector<DisparityRow> rows,
                      ComputeDisparity(dataset, intersectional));
  // Best-effort like the class records: a failed write only means the next
  // run recomputes this panel.
  Status written =
      Store().Write(key, EncodeFigureRecord(name, intersectional, rows));
  if (written.ok()) {
    figure_records_written_->Increment();
  } else {
    FC_LOG_WARN("sched", "figure record write failed for %s: %s",
                key.c_str(), written.ToString().c_str());
  }
  return rows;
}

Result<std::vector<DisparityRow>> SuiteScheduler::ComputeDisparity(
    const DatasetHandle& dataset, bool intersectional) {
  obs::TraceSpan span("sched", [&] {
    return StrFormat("disparity %s/%s", dataset.spec().name.c_str(),
                     intersectional ? "intersectional" : "single");
  });
  FC_ASSIGN_OR_RETURN(const GeneratedDataset* generated, dataset.Rows());
  DisparityOptions disparity_options;
  // The per-figure rng streams (Fig. 1: seed+17, Fig. 2: seed+19), fresh
  // per dataset, so a panel's bytes do not depend on which other panels
  // ran.
  Rng rng(options_.study.seed + (intersectional ? 19 : 17));
  return AnalyzeDisparities(*generated, intersectional, disparity_options,
                            &rng);
}

std::optional<std::vector<DisparityRow>> SuiteScheduler::LoadFigureRecord(
    const std::string& key, const std::string& dataset, bool intersectional) {
  const store::FlatFileStore& blob = Store();
  Result<bool> found = blob.Contains(key);
  if (!found.ok() || !*found) return std::nullopt;
  obs::TraceSpan span("sched", [&] { return "figure-record load " + key; });
  // The same "cache_read" probe as StudyDriver's slice load.
  Result<std::vector<DisparityRow>> rows =
      [&]() -> Result<std::vector<DisparityRow>> {
    FC_RETURN_IF_ERROR(FaultInjector::Global().Inject("cache_read"));
    FC_ASSIGN_OR_RETURN(std::string bytes, blob.Read(key));
    return DecodeFigureRecord(bytes, dataset, intersectional);
  }();
  if (rows.ok()) {
    figure_records_loaded_->Increment();
    return std::move(*rows);
  }
  if (rows.status().code() == StatusCode::kIoError ||
      rows.status().code() == StatusCode::kNotFound) {
    FC_LOG_WARN("sched", "figure record read failed: %s",
                rows.status().ToString().c_str());
    return std::nullopt;
  }
  {
    std::lock_guard<std::mutex> lock(diag_mutex_);
    ++total_.corrupt_quarantined;
  }
  Result<std::string> moved = blob.Quarantine(key);
  FC_LOG_WARN("sched", "corrupt figure record %s (%s) -> %s",
              blob.Describe(key).c_str(), rows.status().ToString().c_str(),
              moved.ok() ? moved->c_str() : "quarantine failed");
  return std::nullopt;
}

namespace {

/// The three error-type scopes that Table XIV and the deep dive span.
std::vector<StudyScope> ErrorTypeScopes() {
  return {MissingScope(), OutlierScope(), MislabelScope()};
}

/// Prints the deep-dive counts next to the paper's Section VI figures.
void PrintDeepDive(const DeepDive& deep_dive) {
  size_t non_worsening = 0;
  size_t improving = 0;
  size_t both = 0;
  for (const auto& [key, outcome] : deep_dive.cases) {
    if (outcome.non_worsening) ++non_worsening;
    if (outcome.improving) ++improving;
    if (outcome.both_improving) ++both;
  }
  std::printf("cases (metric x dataset/attribute x error type): %zu "
              "(paper: 40)\n",
              deep_dive.cases.size());
  std::printf("  with a technique that does not worsen fairness: %zu "
              "(paper: 37 of 40)\n",
              non_worsening);
  std::printf("  with a technique that improves fairness:        %zu "
              "(paper: 23 of 40)\n",
              improving);
  std::printf("  with a technique improving fairness & accuracy: %zu "
              "(paper: 17 of 40)\n\n",
              both);

  std::printf("categorical imputation producing fairness improvements "
              "(missing values):\n");
  for (const auto& [name, wins] : deep_dive.categorical_wins) {
    std::printf("  %-6s: %lld improvements\n", name.c_str(),
                static_cast<long long>(wins));
  }
  std::printf("  (paper: dummy imputation most beneficial, 27 vs 22)\n\n");

  std::printf("outlier detectors: fraction of configurations with negative "
              "fairness impact:\n");
  for (const auto& [detector, counts] : deep_dive.detector_negative) {
    const auto [negative, total] = counts;
    std::printf("  %-13s: %5.1f%% (%lld of %lld)\n", detector.c_str(),
                total ? 100.0 * static_cast<double>(negative) / total : 0.0,
                static_cast<long long>(negative),
                static_cast<long long>(total));
  }
  std::printf("  (paper: iqr 50%%, if 33.3%%, sd 25%%)\n\n");

  std::printf("mean dirty-baseline test accuracy per dataset/model:\n");
  for (const auto& [key, values] : deep_dive.dirty_accuracy) {
    Result<double> mean = Mean(values);
    std::printf("  %-16s: %.4f\n", key.c_str(), mean.ok() ? *mean : 0.0);
  }
  std::printf("  (paper: log-reg provides the highest accuracy over all "
              "tasks, outperformed by xgboost only for outliers on "
              "folk/heart and missing values on adult/folk)\n");
}

}  // namespace

bool SuiteScheduler::Narrowed(const ExperimentGraph& graph,
                              size_t unit_index) const {
  for (size_t narrowed : graph.narrowed_units()) {
    if (narrowed == unit_index) return true;
  }
  return false;
}

ScopeResults SuiteScheduler::ScopeFromDeps(
    const ExperimentGraph& graph, const GraphNode& node,
    const std::string& error_type) const {
  ScopeResults results;
  for (size_t dep : node.deps) {
    const GraphNode& cell = graph.nodes()[dep];
    if (cell.kind != NodeKind::kCell) continue;
    if (cell.cell.error_type != error_type) continue;
    results.emplace(
        cell.cell.dataset + "/" + cell.cell.model,
        std::static_pointer_cast<const CellArtifact>(node_values_[dep]));
  }
  return results;
}

Status SuiteScheduler::RunNode(const SuiteSpec& spec,
                               const ExperimentGraph& graph, size_t id) {
  const GraphNode& node = graph.nodes()[id];
  // A cell or figure node's deps[0] is its dataset node, which ran in an
  // earlier wave.
  auto dataset_dep = [&] {
    return std::static_pointer_cast<const DatasetHandle>(
        node_values_[node.deps[0]]);
  };
  switch (node.kind) {
    case NodeKind::kDataset: {
      // Only the static spec (NotFound for an unknown name): the rows are
      // generated on the handle's first Rows call and counted on
      // "sched.datasets_generated".
      FC_ASSIGN_OR_RETURN(DatasetSpec spec, DatasetSpecByName(node.dataset));
      node_values_[id] = std::make_shared<const DatasetHandle>(
          std::move(spec), options_.study.seed, datasets_generated_);
      return Status::OK();
    }
    case NodeKind::kCell: {
      FC_ASSIGN_OR_RETURN(CellArtifact artifact,
                          ProduceCell(node.cell, *dataset_dep()));
      node_values_[id] = std::make_shared<const CellArtifact>(
          std::move(artifact));
      return Status::OK();
    }
    case NodeKind::kFigure: {
      std::shared_ptr<const DatasetHandle> dataset = dataset_dep();
      auto value = std::make_shared<FigureValue>();
      if (node.intersectional && !dataset->spec().intersectional) {
        value->skipped = true;
      } else {
        FC_ASSIGN_OR_RETURN(value->rows,
                            FigurePanel(*dataset, node.intersectional));
      }
      node_values_[id] = value;
      return Status::OK();
    }
    case NodeKind::kTable: {
      const SuiteUnit& unit = spec.units[node.unit_index];
      auto value = std::make_shared<TableValue>();
      if (Narrowed(graph, node.unit_index)) {
        value->skipped = true;
      } else {
        ScopeResults results =
            ScopeFromDeps(graph, node, unit.scope.error_type);
        const TableSpec& table = unit.tables[node.table_index];
        FC_ASSIGN_OR_RETURN(
            value->table,
            AggregateImpactTable(results, unit.scope, table.intersectional,
                                 table.metric, options_.study.alpha));
      }
      node_values_[id] = value;
      return Status::OK();
    }
    case NodeKind::kModelTable: {
      auto value = std::make_shared<ModelTableValue>();
      if (Narrowed(graph, node.unit_index)) {
        value->skipped = true;
      } else {
        for (const StudyScope& scope : ErrorTypeScopes()) {
          FC_RETURN_IF_ERROR(ForEachSingleAttributeImpact(
              ScopeFromDeps(graph, node, scope.error_type), scope,
              options_.study.alpha, [&](const SingleAttributeImpact& impact) {
                ModelTableValue::Tally& tally = value->tallies[impact.model];
                ++tally.total;
                if (impact.outcome.fairness == Impact::kWorse) {
                  ++tally.fairness_worse;
                }
                if (impact.outcome.fairness == Impact::kBetter) {
                  ++tally.fairness_better;
                  if (impact.outcome.accuracy == Impact::kBetter) {
                    ++tally.both_better;
                  }
                }
              }));
        }
      }
      node_values_[id] = value;
      return Status::OK();
    }
    case NodeKind::kDeepDive: {
      auto value = std::make_shared<DeepDiveValue>();
      if (Narrowed(graph, node.unit_index)) {
        value->skipped = true;
      } else {
        for (const StudyScope& scope : ErrorTypeScopes()) {
          FC_RETURN_IF_ERROR(FoldDeepDive(
              ScopeFromDeps(graph, node, scope.error_type), scope,
              options_.study.alpha, &value->counts));
        }
      }
      node_values_[id] = value;
      return Status::OK();
    }
  }
  return Status::Internal("unknown node kind");
}

Status SuiteScheduler::ExecuteGraph(const SuiteSpec& spec,
                                    const ExperimentGraph& graph) {
  node_values_.assign(graph.nodes().size(), nullptr);
  const std::vector<std::vector<size_t>> waves = graph.Waves();
  for (size_t w = 0; w < waves.size(); ++w) {
    std::vector<size_t> fan_out;
    std::vector<size_t> serial;
    for (size_t id : waves[w]) {
      switch (graph.nodes()[id].kind) {
        case NodeKind::kCell:
        case NodeKind::kDataset:
        case NodeKind::kFigure:
          fan_out.push_back(id);
          break;
        default:
          serial.push_back(id);
      }
    }
    FC_RETURN_IF_ERROR(FanOut(spec, graph, w, std::move(fan_out)));
    // Aggregation nodes are cheap and read many deps: run inline.
    for (size_t id : serial) FC_RETURN_IF_ERROR(RunNode(spec, graph, id));
  }
  return Status::OK();
}

Status SuiteScheduler::FanOut(const SuiteSpec& spec,
                              const ExperimentGraph& graph, size_t wave_index,
                              std::vector<size_t> ids) {
  // Submit longest-first (LPT): expensive cells start before cheap ones,
  // so the tail of the wave fills idle workers instead of stranding one
  // long cell at the end. Stable sort with ascending id as the tiebreak
  // keeps the order deterministic.
  auto rank = [&graph](size_t id) {
    const GraphNode& node = graph.nodes()[id];
    return node.kind == NodeKind::kCell ? CellCostRank(node.cell)
                                        : 15;  // datasets/figures: mid-weight
  };
  std::stable_sort(ids.begin(), ids.end(), [&](size_t a, size_t b) {
    int ra = rank(a);
    int rb = rank(b);
    if (ra != rb) return ra > rb;
    return a < b;
  });
  // Results land in their node slot. Failures are reported by smallest
  // node id so every width (and every submission order) sees the same
  // first error.
  current_wave_ = wave_index;
  std::vector<Status> statuses =
      RunIndexed(pool_.get(), ids.size(), [&](size_t i) {
        return InvokeWithStatusCapture(
            [&, i] { return RunNode(spec, graph, ids[i]); });
      });
  current_wave_ = kNoWave;
  size_t failed_pos = ids.size();
  for (size_t i = 0; i < ids.size(); ++i) {
    if (statuses[i].ok()) continue;
    if (failed_pos == ids.size() || ids[i] < ids[failed_pos]) failed_pos = i;
  }
  return failed_pos == ids.size() ? Status::OK() : statuses[failed_pos];
}

void SuiteScheduler::PrintUnitHeading(const SuiteUnit& unit) const {
  if (unit.kind == SuiteUnit::Kind::kTables) {
    std::printf("== %s ==\n", unit.heading.c_str());
    std::printf(
        "scale: sample=%zu repeats=%zu folds=%zu seed=%llu threads=%zu "
        "(override via FAIRCLEAN_SAMPLE / FAIRCLEAN_REPEATS / FAIRCLEAN_FOLDS "
        "/ FAIRCLEAN_SEED / FAIRCLEAN_THREADS)\n\n",
        options_.study.sample_size, options_.study.num_repeats,
        options_.study.cv_folds,
        static_cast<unsigned long long>(options_.study.seed), width_);
  } else {
    std::printf("== %s ==\n\n", unit.heading.c_str());
  }
}

void SuiteScheduler::RenderFigureSummary(const SuiteUnit& unit,
                                         const ExperimentGraph& graph,
                                         size_t unit_index) const {
  size_t missing_cases = 0;
  size_t missing_dis_higher = 0;
  size_t significant_rows = 0;
  size_t total_rows = 0;
  size_t adult_significant = 0;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind != NodeKind::kFigure || node.unit_index != unit_index) {
      continue;
    }
    auto value =
        std::static_pointer_cast<const FigureValue>(node_values_[node.id]);
    if (value == nullptr || value->skipped) continue;
    for (const DisparityRow& row : value->rows) {
      ++total_rows;
      if (row.significant) {
        ++significant_rows;
        if (row.dataset == "adult") ++adult_significant;
      }
      if (row.detector == "missing_values") {
        ++missing_cases;
        if (row.DisadvantagedFraction() > row.PrivilegedFraction()) {
          ++missing_dis_higher;
        }
      }
    }
  }

  std::printf("== summary vs paper ==\n");
  if (!unit.fig_intersectional) {
    std::printf(
        "missing values flagged more often for the disadvantaged group: "
        "%zu of %zu dataset/attribute cases (paper: 4 of 6)\n",
        missing_dis_higher, missing_cases);
    std::printf(
        "significant disparities: %zu of %zu detector/group rows overall\n",
        significant_rows, total_rows);
    std::printf(
        "adult rows with significant disparity: %zu of 10 (paper: adult is "
        "the only dataset where ALL five detectors flag significant "
        "disparities)\n",
        adult_significant);
  } else {
    std::printf(
        "missing values flagged more often for the intersectionally "
        "disadvantaged group: %zu of %zu cases (paper: 2 of 3)\n",
        missing_dis_higher, missing_cases);
  }
}

Status SuiteScheduler::RenderUnitBody(const SuiteSpec& spec,
                                      const ExperimentGraph& graph,
                                      size_t unit_index) const {
  const SuiteUnit& unit = spec.units[unit_index];
  switch (unit.kind) {
    case SuiteUnit::Kind::kFigure: {
      for (const GraphNode& node : graph.nodes()) {
        if (node.kind != NodeKind::kFigure || node.unit_index != unit_index) {
          continue;
        }
        auto value = std::static_pointer_cast<const FigureValue>(
            node_values_[node.id]);
        if (value->skipped) {
          std::printf("%s: no intersectional definition (skipped, as in the "
                      "paper)\n\n",
                      node.dataset.c_str());
          continue;
        }
        std::printf("%s", FormatDisparityTable(value->rows).c_str());
        std::printf("\n");
      }
      RenderFigureSummary(unit, graph, unit_index);
      return Status::OK();
    }
    case SuiteUnit::Kind::kTables: {
      for (const GraphNode& node : graph.nodes()) {
        if (node.kind != NodeKind::kTable || node.unit_index != unit_index) {
          continue;
        }
        auto value = std::static_pointer_cast<const TableValue>(
            node_values_[node.id]);
        const TableSpec& table = unit.tables[node.table_index];
        if (value->skipped) {
          std::printf("%s: skipped — the filter narrowed this unit's cell "
                      "set, so the aggregation would be incomplete\n\n",
                      table.reference.label);
          continue;
        }
        std::string title = StrFormat(
            "Impact of auto-cleaning %s for %s groups, %s as fairness metric",
            unit.scope.error_type.c_str(),
            table.intersectional ? "intersectional" : "single-attribute",
            FairnessMetricName(table.metric));
        PrintTableWithReference(value->table, table.reference, title);
      }
      return Status::OK();
    }
    case SuiteUnit::Kind::kModelTable: {
      for (const GraphNode& node : graph.nodes()) {
        if (node.kind != NodeKind::kModelTable ||
            node.unit_index != unit_index) {
          continue;
        }
        auto value = std::static_pointer_cast<const ModelTableValue>(
            node_values_[node.id]);
        if (value->skipped) {
          std::printf("%s: skipped — the filter narrowed this unit's cell "
                      "set, so the aggregation would be incomplete\n",
                      unit.name.c_str());
          continue;
        }
        std::printf("%-10s %-22s %-22s %-26s %s\n", "model", "fairness worse",
                    "fairness better", "fairness & acc. better", "configs");
        for (const ModelReference& paper : unit.model_references) {
          auto it = value->tallies.find(paper.model);
          ModelTableValue::Tally tally;
          if (it != value->tallies.end()) tally = it->second;
          double total = static_cast<double>(tally.total);
          std::printf(
              "%-10s %5.1f%% (%3lld)        %5.1f%% (%3lld)        %5.1f%% "
              "(%3lld)            %lld\n",
              paper.model,
              total ? 100.0 * tally.fairness_worse / total : 0.0,
              static_cast<long long>(tally.fairness_worse),
              total ? 100.0 * tally.fairness_better / total : 0.0,
              static_cast<long long>(tally.fairness_better),
              total ? 100.0 * tally.both_better / total : 0.0,
              static_cast<long long>(tally.both_better),
              static_cast<long long>(tally.total));
          std::printf("  paper:   %5.1f%%               %5.1f%%               "
                      "%5.1f%%                    212\n",
                      paper.worse, paper.better, paper.both);
        }

        // Paper's qualitative claims for Table XIV.
        auto tally_of = [&value](const char* model) {
          auto found = value->tallies.find(model);
          return found != value->tallies.end() ? found->second
                                               : ModelTableValue::Tally();
        };
        ModelTableValue::Tally logreg = tally_of("log-reg");
        bool logreg_most_both =
            logreg.both_better >= tally_of("xgboost").both_better &&
            logreg.both_better >= tally_of("knn").both_better;
        std::printf(
            "\nshape check: log-reg benefits most from cleaning "
            "(fairness & accuracy better) -> %s\n",
            logreg_most_both ? "MATCH" : "MISMATCH");
        bool all_worse_dominates = true;
        for (const auto& [model, tally] : value->tallies) {
          if (tally.fairness_worse < tally.fairness_better) {
            all_worse_dominates = false;
          }
        }
        std::printf(
            "shape check: for every model, cleaning worsens fairness more "
            "often than it improves it -> %s\n",
            all_worse_dominates ? "MATCH" : "MISMATCH");
      }
      return Status::OK();
    }
    case SuiteUnit::Kind::kDeepDive: {
      for (const GraphNode& node : graph.nodes()) {
        if (node.kind != NodeKind::kDeepDive ||
            node.unit_index != unit_index) {
          continue;
        }
        auto value = std::static_pointer_cast<const DeepDiveValue>(
            node_values_[node.id]);
        if (value->skipped) {
          std::printf("%s: skipped — the filter narrowed this unit's cell "
                      "set, so the aggregation would be incomplete\n",
                      unit.name.c_str());
          continue;
        }
        PrintDeepDive(value->counts);
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown unit kind");
}

namespace {

std::string JsonDouble(double value) { return StrFormat("%.17g", value); }

}  // namespace

SuiteScheduler::ArtifactCounts SuiteScheduler::CountArtifacts(
    const ExperimentGraph& graph) const {
  // Counted from the graph alone, never from work done, so cold and warm
  // runs report the same numbers. `produced` is the distinct artifacts: one
  // per dataset node, cell node and non-skipped figure panel. `reused` is
  // the references to them: every cell and figure node reads its dataset's
  // handle, and every panel's analysis reads it once more. Row generations
  // that actually ran are counted apart ("sched.datasets_generated") and
  // never reach the report.
  ArtifactCounts counts;
  for (const GraphNode& node : graph.nodes()) {
    switch (node.kind) {
      case NodeKind::kDataset:
        ++counts.produced;
        break;
      case NodeKind::kCell:
        ++counts.produced;
        ++counts.reused;
        break;
      case NodeKind::kFigure: {
        ++counts.reused;
        auto value = std::static_pointer_cast<const FigureValue>(
            node_values_[node.id]);
        if (value != nullptr && !value->skipped) {
          ++counts.produced;
          ++counts.reused;
        }
        break;
      }
      default:
        break;
    }
  }
  return counts;
}

std::string SuiteScheduler::BuildReportJson(const SuiteSpec& spec,
                                            const ExperimentGraph& graph,
                                            const SuiteFilter& filter) const {
  // Determinism rules: no wall times, no thread counts, no runtime
  // counters (they could differ between fresh and resumed runs and across
  // widths); cache files by basename only; doubles at full precision;
  // entries in graph-node order. The resulting bytes are identical for
  // sequential, parallel, and killed-and-resumed runs — the suite golden
  // test pins this.
  std::string filter_text;
  for (size_t i = 0; i < filter.tokens.size(); ++i) {
    if (i) filter_text += ",";
    filter_text += filter.tokens[i];
  }

  std::string out = "{";
  out += "\"suite\":" + obs::JsonQuote(spec.name);
  out += ",\"filter\":" + obs::JsonQuote(filter_text);
  out += StrFormat(
      ",\"options\":{\"sample_size\":%zu,\"test_fraction\":%s,"
      "\"num_repeats\":%zu,\"cv_folds\":%zu,\"seed\":%llu,\"alpha\":%s,"
      "\"max_retries\":%zu}",
      options_.study.sample_size,
      JsonDouble(options_.study.test_fraction).c_str(),
      options_.study.num_repeats, options_.study.cv_folds,
      static_cast<unsigned long long>(options_.study.seed),
      JsonDouble(options_.study.alpha).c_str(), options_.max_retries);
  // Artifact-sharing summary, derived from the graph (CountArtifacts).
  out += StrFormat(",\"artifacts\":{\"produced\":%llu,\"reused\":%llu}",
                   static_cast<unsigned long long>(artifact_counts_.produced),
                   static_cast<unsigned long long>(artifact_counts_.reused));

  // Mass-run classifier (DESIGN.md Section 16): per-class cell totals.
  // Classes are persisted class: records read back on cache hits, so the
  // block is identical between fresh, warm, resumed, and merged runs.
  ClassifierCounts classifier;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind != NodeKind::kCell) continue;
    auto artifact =
        std::static_pointer_cast<const CellArtifact>(node_values_[node.id]);
    classifier.Add(artifact->cell_class);
  }
  out += ",\"classifier\":" + classifier.ToJson();

  const Impact kImpacts[3] = {Impact::kWorse, Impact::kInsignificant,
                              Impact::kBetter};

  out += ",\"cells\":[";
  bool first = true;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind != NodeKind::kCell) continue;
    auto artifact =
        std::static_pointer_cast<const CellArtifact>(node_values_[node.id]);
    out += StrFormat(
        "%s{\"id\":%s,\"cache_file\":%s,\"sha256\":%s,\"class\":%s,"
        "\"repeats\":%zu}",
        first ? "" : ",", obs::JsonQuote(node.label).c_str(),
        obs::JsonQuote(artifact->cache_file).c_str(),
        obs::JsonQuote(artifact->sha256).c_str(),
        obs::JsonQuote(CellClassName(artifact->cell_class)).c_str(),
        artifact->result.dirty.accuracy.size());
    first = false;
  }
  out += "]";

  out += ",\"figures\":[";
  first = true;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind != NodeKind::kFigure) continue;
    auto value =
        std::static_pointer_cast<const FigureValue>(node_values_[node.id]);
    out += StrFormat("%s{\"id\":%s,\"skipped\":%s,\"rows\":[",
                     first ? "" : ",", obs::JsonQuote(node.label).c_str(),
                     value->skipped ? "true" : "false");
    first = false;
    if (!value->skipped) {
      bool first_row = true;
      for (const DisparityRow& row : value->rows) {
        out += StrFormat(
            "%s{\"detector\":%s,\"group\":%s,\"privileged_flagged\":%zu,"
            "\"privileged_total\":%zu,\"disadvantaged_flagged\":%zu,"
            "\"disadvantaged_total\":%zu,\"g2\":%s,\"p\":%s,"
            "\"significant\":%s}",
            first_row ? "" : ",", obs::JsonQuote(row.detector).c_str(),
            obs::JsonQuote(row.group_key).c_str(), row.privileged_flagged,
            row.privileged_total, row.disadvantaged_flagged,
            row.disadvantaged_total, JsonDouble(row.g2.statistic).c_str(),
            JsonDouble(row.g2.p_value).c_str(),
            row.significant ? "true" : "false");
        first_row = false;
      }
    }
    out += "]}";
  }
  out += "]";

  out += ",\"tables\":[";
  first = true;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind != NodeKind::kTable) continue;
    const SuiteUnit& unit = spec.units[node.unit_index];
    const TableSpec& table = unit.tables[node.table_index];
    auto value =
        std::static_pointer_cast<const TableValue>(node_values_[node.id]);
    out += StrFormat("%s{\"id\":%s,\"skipped\":%s", first ? "" : ",",
                     obs::JsonQuote(node.label).c_str(),
                     value->skipped ? "true" : "false");
    first = false;
    if (!value->skipped) {
      out += StrFormat(",\"total\":%lld,\"counts\":[",
                       static_cast<long long>(value->table.Total()));
      for (size_t r = 0; r < 3; ++r) {
        out += r ? ",[" : "[";
        for (size_t c = 0; c < 3; ++c) {
          out += StrFormat(
              "%s%lld", c ? "," : "",
              static_cast<long long>(
                  value->table.cell(kImpacts[r], kImpacts[c])));
        }
        out += "]";
      }
      out += "],\"reference\":[";
      for (size_t r = 0; r < 3; ++r) {
        out += r ? ",[" : "[";
        for (size_t c = 0; c < 3; ++c) {
          out += StrFormat("%s%s", c ? "," : "",
                           JsonDouble(table.reference.cells[r][c]).c_str());
        }
        out += "]";
      }
      out += StrFormat(
          "],\"shape_match\":%s",
          CheckShape(value->table, table.reference).match() ? "true"
                                                            : "false");
    }
    out += "}";
  }
  out += "]";

  out += ",\"model_tables\":[";
  first = true;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind != NodeKind::kModelTable) continue;
    const SuiteUnit& unit = spec.units[node.unit_index];
    auto value = std::static_pointer_cast<const ModelTableValue>(
        node_values_[node.id]);
    out += StrFormat("%s{\"id\":%s,\"skipped\":%s,\"models\":[",
                     first ? "" : ",", obs::JsonQuote(node.label).c_str(),
                     value->skipped ? "true" : "false");
    first = false;
    if (!value->skipped) {
      bool first_model = true;
      for (const ModelReference& paper : unit.model_references) {
        auto it = value->tallies.find(paper.model);
        ModelTableValue::Tally tally;
        if (it != value->tallies.end()) tally = it->second;
        out += StrFormat(
            "%s{\"model\":%s,\"total\":%lld,\"fairness_worse\":%lld,"
            "\"fairness_better\":%lld,\"both_better\":%lld}",
            first_model ? "" : ",", obs::JsonQuote(paper.model).c_str(),
            static_cast<long long>(tally.total),
            static_cast<long long>(tally.fairness_worse),
            static_cast<long long>(tally.fairness_better),
            static_cast<long long>(tally.both_better));
        first_model = false;
      }
    }
    out += "]}";
  }
  out += "]}";
  out += "\n";
  return out;
}

Status SuiteScheduler::RunSuite(const SuiteSpec& spec,
                                const SuiteFilter& filter) {
  obs::TraceSpan span("sched", [&] { return "suite " + spec.name; });
  ExperimentGraph graph = ExperimentGraph::Build(spec, filter);
  FC_LOG_INFO("suite",
              "%s: %zu nodes (%zu datasets, %zu cells, %zu figures), "
              "width %zu",
              spec.name.c_str(), graph.nodes().size(),
              graph.CountKind(NodeKind::kDataset),
              graph.CountKind(NodeKind::kCell),
              graph.CountKind(NodeKind::kFigure), width_);
  FC_RETURN_IF_ERROR(ExecuteGraph(spec, graph));
  for (size_t unit_index : graph.selected_units()) {
    PrintUnitHeading(spec.units[unit_index]);
    FC_RETURN_IF_ERROR(RenderUnitBody(spec, graph, unit_index));
    std::printf("\n");
  }
  artifact_counts_ = CountArtifacts(graph);
  report_json_ = BuildReportJson(spec, graph, filter);
  if (!options_.report_path.empty()) {
    FC_RETURN_IF_ERROR(WriteFileAtomic(options_.report_path, report_json_));
    FC_LOG_INFO("suite", "report written to %s", options_.report_path.c_str());
  }
  return Status::OK();
}

}  // namespace sched
}  // namespace fairclean
