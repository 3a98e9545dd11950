#ifndef FAIRCLEAN_SCHED_EXPERIMENT_GRAPH_H_
#define FAIRCLEAN_SCHED_EXPERIMENT_GRAPH_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "sched/suite_spec.h"

namespace fairclean {
namespace sched {

/// Node kinds of the suite DAG, in dependency order: dataset artifacts feed
/// experiment cells and figure analyses, which feed table and deep-dive
/// aggregations.
enum class NodeKind {
  kDataset,
  kCell,
  kFigure,
  kTable,
  kModelTable,
  kDeepDive
};

const char* NodeKindName(NodeKind kind);

/// One node of the suite DAG. Payload fields are kind-specific.
struct GraphNode {
  size_t id = 0;
  NodeKind kind = NodeKind::kDataset;
  /// Stable display/filter id: "dataset/adult", "adult/outliers/knn",
  /// "fig1/adult", "tables_missing/Table II...".
  std::string label;
  std::vector<size_t> deps;

  std::string dataset;          ///< kDataset / kFigure
  bool intersectional = false;  ///< kFigure
  CellKey cell;                 ///< kCell
  size_t unit_index = 0;        ///< every kind but kDataset / kCell
  size_t table_index = 0;       ///< kTable: index into unit.tables
};

/// The paper grid as an explicit DAG: dataset and experiment-cell nodes are
/// deduplicated across units (content addressing at the graph level — a
/// cell consumed by both its table unit and the model unit is one node),
/// so building the graph for the whole suite yields each shared artifact
/// exactly once. Construction is deterministic given (spec, filter); node
/// ids are creation-ordered.
class ExperimentGraph {
 public:
  static ExperimentGraph Build(const SuiteSpec& spec,
                               const SuiteFilter& filter);

  const std::vector<GraphNode>& nodes() const { return nodes_; }
  /// Indices into spec.units of the selected units, in spec order.
  const std::vector<size_t>& selected_units() const { return selected_; }
  /// Unit indices whose cell set was narrowed by the filter (their table
  /// aggregations cannot be complete).
  const std::vector<size_t>& narrowed_units() const { return narrowed_; }

  size_t CountKind(NodeKind kind) const;

  /// Topological waves (Kahn levels): wave k holds every node whose longest
  /// dependency chain has length k, ids ascending within a wave. Nodes of
  /// one wave never depend on each other, so a wave can execute with full
  /// parallelism; waves execute in order.
  std::vector<std::vector<size_t>> Waves() const;

 private:
  std::vector<GraphNode> nodes_;
  std::vector<size_t> selected_;
  std::vector<size_t> narrowed_;
};

}  // namespace sched
}  // namespace fairclean

#endif  // FAIRCLEAN_SCHED_EXPERIMENT_GRAPH_H_
