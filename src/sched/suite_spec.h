#ifndef FAIRCLEAN_SCHED_SUITE_SPEC_H_
#define FAIRCLEAN_SCHED_SUITE_SPEC_H_

#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/runner.h"
#include "datasets/generator.h"
#include "fairness/fairness_metrics.h"
#include "obs/metrics.h"

namespace fairclean {
namespace sched {

/// One (dataset, sensitive attribute) pair of the single-attribute
/// analysis.
struct PairSpec {
  std::string dataset;
  std::string attribute;
};

/// The exact experiment scope of one error type, derived from the paper's
/// table denominators (DESIGN.md Section 4).
struct StudyScope {
  std::string error_type;
  std::vector<PairSpec> single_pairs;
  std::vector<std::string> intersectional_datasets;

  /// Distinct dataset names touched by this scope.
  std::vector<std::string> Datasets() const;
};

/// missing values: 6 single pairs (adult/folk/german), 3 intersectional.
StudyScope MissingScope();
/// outliers: 7 single pairs (adult/folk/credit/heart), 4 intersectional.
StudyScope OutlierScope();
/// mislabels: same 7 single pairs, 4 intersectional.
StudyScope MislabelScope();

/// Reference percentages of a paper table (row-major: fairness worse /
/// insignificant / better x accuracy worse / insignificant / better).
struct PaperTable {
  const char* label;
  double cells[3][3];
};

/// One measured-vs-paper impact table of a table unit.
struct TableSpec {
  bool intersectional;
  FairnessMetric metric;
  PaperTable reference;
};

/// Paper reference row of the per-model analysis (Table XIV percentages).
struct ModelReference {
  const char* model;
  double worse;
  double better;
  double both;
};

/// One schedulable unit of the suite: a table group over one error-type
/// scope, the per-model breakdown or the Section VI deep dive (both
/// spanning all three scopes), or a disparity figure.
struct SuiteUnit {
  enum class Kind { kTables, kModelTable, kDeepDive, kFigure };

  std::string name;
  Kind kind = Kind::kTables;
  /// Bench heading, e.g. "Tables II-V: impact of auto-cleaning missing
  /// values".
  std::string heading;
  /// kTables: the scope whose cells feed this unit's aggregations.
  StudyScope scope;
  /// kTables: the measured-vs-paper tables, in print order.
  std::vector<TableSpec> tables;
  /// kModelTable: the paper's per-model reference rows (Table XIV), in
  /// print order.
  std::vector<ModelReference> model_references;
  /// kFigure: true for the intersectional analysis (Fig. 2).
  bool fig_intersectional = false;
  /// Units excluded from a default full run; selected only when a filter
  /// token names them (the CI "smoke" subset).
  bool only_on_filter = false;
};

/// A named collection of suite units.
struct SuiteSpec {
  std::string name;
  std::vector<SuiteUnit> units;
};

/// The full paper grid as one suite: Figures 1-2, Tables II-XIII (three
/// table units), Table XIV (model unit), the Section VI deep dive, plus
/// the filter-only "smoke" subset used by CI.
SuiteSpec PaperSuite();

/// One experiment cell of the grid: the unit of driver work and caching.
struct CellKey {
  std::string dataset;
  std::string error_type;
  std::string model;

  /// "<dataset>/<error_type>/<model>" — stable display and filter id.
  std::string Id() const;

  bool operator<(const CellKey& other) const;
  bool operator==(const CellKey& other) const;
};

/// The distinct experiment cells a unit consumes, in deterministic order
/// (scope dataset order x AllModelNames). The model and deep-dive units
/// span the three error-type scopes; figure units consume no cells.
std::vector<CellKey> UnitCells(const SuiteUnit& unit);

/// Comma-separated substring filter over unit names and cell/figure ids.
/// An empty filter selects every default unit. A token that matches a unit
/// name selects the whole unit (including only_on_filter units); a token
/// that matches a cell id narrows a unit to the matching cells, which makes
/// its table aggregations report as skipped-incomplete.
struct SuiteFilter {
  std::vector<std::string> tokens;

  static SuiteFilter Parse(const std::string& csv);

  bool Empty() const { return tokens.empty(); }
  /// Any token is a substring of `name`.
  bool MatchesName(const std::string& name) const;
};

/// Generates the named dataset with the canonical suite seed derivation
/// (seed * golden-ratio-odd + FNV-1a(name)) — the exact formula the benches
/// have always used, so every pre-existing driver cache stays valid.
Result<GeneratedDataset> MakeSuiteDataset(const std::string& name,
                                          uint64_t study_seed);

/// The value of a suite dataset node: the static spec at once, the
/// generated rows on demand. The cell and figure nodes that depend on the
/// dataset node share its one handle. Keys, logs, cache hits and
/// figure-record loads need only the spec. The rows are generated
/// (MakeSuiteDataset) by the first Rows call, which is the first repeat
/// slot or figure panel that must actually be computed, and shared by
/// every later call. A failed generation is memoized: it is deterministic
/// given (name, seed).
///
/// Thread-safe. Concurrent Rows calls share the one generation: a caller
/// that arrives while another generates blocks until the rows are ready.
class DatasetHandle {
 public:
  /// `generated` (may be null) counts the generations that actually run.
  DatasetHandle(DatasetSpec spec, uint64_t study_seed,
                obs::Counter* generated);

  const DatasetSpec& spec() const { return spec_; }

  /// The generated rows, valid for the handle's lifetime.
  Result<const GeneratedDataset*> Rows() const;

 private:
  const DatasetSpec spec_;
  const uint64_t study_seed_;
  obs::Counter* const generated_;
  mutable std::mutex mutex_;
  mutable std::condition_variable ready_cv_;
  mutable bool started_ = false;
  mutable bool ready_ = false;
  mutable Status status_ = Status::OK();
  mutable GeneratedDataset rows_;
};

}  // namespace sched
}  // namespace fairclean

#endif  // FAIRCLEAN_SCHED_SUITE_SPEC_H_
