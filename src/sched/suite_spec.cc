#include "sched/suite_spec.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <tuple>

#include "common/hash.h"
#include "ml/tuning.h"
#include "obs/trace.h"

namespace fairclean {
namespace sched {

std::vector<std::string> StudyScope::Datasets() const {
  std::set<std::string> names;
  for (const PairSpec& pair : single_pairs) names.insert(pair.dataset);
  for (const std::string& name : intersectional_datasets) names.insert(name);
  return std::vector<std::string>(names.begin(), names.end());
}

StudyScope MissingScope() {
  StudyScope scope;
  scope.error_type = "missing_values";
  scope.single_pairs = {{"adult", "sex"},  {"adult", "race"},
                        {"folk", "sex"},   {"folk", "race"},
                        {"german", "sex"}, {"german", "age"}};
  scope.intersectional_datasets = {"adult", "folk", "german"};
  return scope;
}

StudyScope OutlierScope() {
  StudyScope scope;
  scope.error_type = "outliers";
  scope.single_pairs = {{"adult", "sex"}, {"adult", "race"},
                        {"folk", "sex"},  {"folk", "race"},
                        {"credit", "age"}, {"heart", "sex"},
                        {"heart", "age"}};
  scope.intersectional_datasets = {"adult", "folk", "german", "heart"};
  return scope;
}

StudyScope MislabelScope() {
  StudyScope scope = OutlierScope();
  scope.error_type = "mislabels";
  return scope;
}

namespace {

std::vector<TableSpec> StandardTables(const PaperTable references[4]) {
  // Print order of every table unit: single-PP, single-EO,
  // intersectional-PP, intersectional-EO.
  return {
      {false, FairnessMetric::kPredictiveParity, references[0]},
      {false, FairnessMetric::kEqualOpportunity, references[1]},
      {true, FairnessMetric::kPredictiveParity, references[2]},
      {true, FairnessMetric::kEqualOpportunity, references[3]},
  };
}

const PaperTable kMissingReferences[4] = {
    {"Table II: missing values, single-attribute, PP",
     {{3.7, 1.9, 16.7}, {5.6, 34.3, 7.4}, {3.7, 7.4, 19.4}}},
    {"Table III: missing values, single-attribute, EO",
     {{1.9, 15.7, 19.4}, {9.3, 25.9, 13.0}, {1.9, 1.9, 11.1}}},
    {"Table IV: missing values, intersectional, PP",
     {{0.0, 0.0, 5.6}, {3.7, 27.8, 11.1}, {3.7, 14.8, 33.3}}},
    {"Table V: missing values, intersectional, EO",
     {{0.0, 11.1, 11.1}, {7.4, 20.4, 22.2}, {0.0, 11.1, 16.7}}},
};

const PaperTable kOutlierReferences[4] = {
    {"Table VI: outliers, single-attribute, PP",
     {{21.2, 1.1, 1.6}, {21.2, 25.9, 14.3}, {5.3, 3.2, 6.3}}},
    {"Table VII: outliers, single-attribute, EO",
     {{28.0, 5.8, 14.8}, {15.9, 24.3, 7.4}, {3.7, 0.0, 0.0}}},
    {"Table VIII: outliers, intersectional, PP",
     {{14.8, 0.9, 0.9}, {28.7, 25.0, 8.3}, {4.6, 2.8, 13.9}}},
    {"Table IX: outliers, intersectional, EO",
     {{15.7, 0.9, 16.7}, {32.4, 26.9, 6.5}, {0.0, 0.9, 0.0}}},
};

const PaperTable kMislabelReferences[4] = {
    {"Table X: mislabels, single-attribute, PP",
     {{14.3, 14.3, 19.0}, {9.5, 0.0, 9.5}, {0.0, 0.0, 33.3}}},
    {"Table XI: mislabels, single-attribute, EO",
     {{0.0, 4.8, 0.0}, {0.0, 0.0, 14.3}, {23.8, 9.5, 47.6}}},
    {"Table XII: mislabels, intersectional, PP",
     {{25.0, 8.3, 33.3}, {0.0, 0.0, 0.0}, {0.0, 0.0, 33.3}}},
    {"Table XIII: mislabels, intersectional, EO",
     {{0.0, 0.0, 0.0}, {0.0, 0.0, 0.0}, {25.0, 8.3, 66.7}}},
};

}  // namespace

SuiteSpec PaperSuite() {
  SuiteSpec spec;
  spec.name = "paper";

  SuiteUnit fig1;
  fig1.name = "fig1";
  fig1.kind = SuiteUnit::Kind::kFigure;
  fig1.heading =
      "Figure 1: single-attribute disparity of error-detector flag rates";
  fig1.fig_intersectional = false;
  spec.units.push_back(fig1);

  SuiteUnit fig2;
  fig2.name = "fig2";
  fig2.kind = SuiteUnit::Kind::kFigure;
  fig2.heading =
      "Figure 2: intersectional disparity of error-detector flag rates";
  fig2.fig_intersectional = true;
  spec.units.push_back(fig2);

  SuiteUnit missing;
  missing.name = "tables_missing";
  missing.heading = "Tables II-V: impact of auto-cleaning missing values";
  missing.scope = MissingScope();
  missing.tables = StandardTables(kMissingReferences);
  spec.units.push_back(missing);

  SuiteUnit outliers;
  outliers.name = "tables_outliers";
  outliers.heading = "Tables VI-IX: impact of auto-cleaning outliers";
  outliers.scope = OutlierScope();
  outliers.tables = StandardTables(kOutlierReferences);
  spec.units.push_back(outliers);

  SuiteUnit mislabels;
  mislabels.name = "tables_mislabels";
  mislabels.heading = "Tables X-XIII: impact of auto-cleaning label errors";
  mislabels.scope = MislabelScope();
  mislabels.tables = StandardTables(kMislabelReferences);
  spec.units.push_back(mislabels);

  SuiteUnit models;
  models.name = "table_models";
  models.kind = SuiteUnit::Kind::kModelTable;
  models.heading =
      "Table XIV: impact of auto-cleaning per ML model "
      "(single-attribute analysis)";
  models.model_references = {{"xgboost", 32.1, 17.0, 1.9},
                             {"knn", 31.6, 12.7, 11.3},
                             {"log-reg", 36.3, 21.2, 16.0}};
  spec.units.push_back(models);

  // Section VI: the same cells as Table XIV, folded into the paper's
  // deep-dive counts. Printed only; the merged report has no key for it.
  SuiteUnit deepdive;
  deepdive.name = "deepdive";
  deepdive.kind = SuiteUnit::Kind::kDeepDive;
  deepdive.heading = "Section VI deep dive";
  spec.units.push_back(deepdive);

  // CI smoke subset: one dataset with every missing-values cell, aggregated
  // against the full-scope paper references (the shape check is
  // informational at this scale). Selected only via --filter smoke.
  SuiteUnit smoke;
  smoke.name = "smoke";
  smoke.heading = "Smoke subset: german missing values";
  smoke.scope.error_type = "missing_values";
  smoke.scope.single_pairs = {{"german", "sex"}, {"german", "age"}};
  smoke.scope.intersectional_datasets = {"german"};
  smoke.tables = StandardTables(kMissingReferences);
  smoke.only_on_filter = true;
  spec.units.push_back(smoke);

  return spec;
}

std::string CellKey::Id() const {
  return dataset + "/" + error_type + "/" + model;
}

bool CellKey::operator<(const CellKey& other) const {
  return std::tie(dataset, error_type, model) <
         std::tie(other.dataset, other.error_type, other.model);
}

bool CellKey::operator==(const CellKey& other) const {
  return dataset == other.dataset && error_type == other.error_type &&
         model == other.model;
}

std::vector<CellKey> UnitCells(const SuiteUnit& unit) {
  std::vector<CellKey> cells;
  auto add_scope = [&cells](const StudyScope& scope) {
    for (const std::string& dataset : scope.Datasets()) {
      for (const std::string& model : AllModelNames()) {
        cells.push_back({dataset, scope.error_type, model});
      }
    }
  };
  switch (unit.kind) {
    case SuiteUnit::Kind::kTables:
      add_scope(unit.scope);
      break;
    case SuiteUnit::Kind::kModelTable:
    case SuiteUnit::Kind::kDeepDive:
      add_scope(MissingScope());
      add_scope(OutlierScope());
      add_scope(MislabelScope());
      break;
    case SuiteUnit::Kind::kFigure:
      break;
  }
  return cells;
}

SuiteFilter SuiteFilter::Parse(const std::string& csv) {
  SuiteFilter filter;
  std::string token;
  for (char c : csv + ",") {
    if (c == ',') {
      if (!token.empty()) filter.tokens.push_back(token);
      token.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      token.push_back(c);
    }
  }
  return filter;
}

bool SuiteFilter::MatchesName(const std::string& name) const {
  for (const std::string& token : tokens) {
    if (name.find(token) != std::string::npos) return true;
  }
  return false;
}

Result<GeneratedDataset> MakeSuiteDataset(const std::string& name,
                                          uint64_t study_seed) {
  // Dataset synthesis is decoupled from the runner's per-repeat seeds but
  // still derives from the global study seed.
  Rng rng(study_seed * 0x9e3779b97f4a7c15ULL + Fnv1a64(name));
  return MakeDataset(name, 0, &rng);
}

DatasetHandle::DatasetHandle(DatasetSpec spec, uint64_t study_seed,
                             obs::Counter* generated)
    : spec_(std::move(spec)), study_seed_(study_seed), generated_(generated) {}

Result<const GeneratedDataset*> DatasetHandle::Rows() const {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!started_) {
    started_ = true;
    lock.unlock();
    Result<GeneratedDataset> made = [&] {
      obs::TraceSpan span("sched", [&] { return "dataset " + spec_.name; });
      return MakeSuiteDataset(spec_.name, study_seed_);
    }();
    if (generated_ != nullptr) generated_->Increment();
    lock.lock();
    if (made.ok()) {
      rows_ = std::move(*made);
    } else {
      status_ = made.status();
    }
    ready_ = true;
    ready_cv_.notify_all();
  } else {
    ready_cv_.wait(lock, [this] { return ready_; });
  }
  if (!status_.ok()) return status_;
  return &rows_;
}

}  // namespace sched
}  // namespace fairclean
