#include "sched/experiment_graph.h"

#include <algorithm>
#include <map>

#include "datasets/generator.h"

namespace fairclean {
namespace sched {

const char* NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kDataset:
      return "dataset";
    case NodeKind::kCell:
      return "cell";
    case NodeKind::kFigure:
      return "figure";
    case NodeKind::kTable:
      return "table";
    case NodeKind::kModelTable:
      return "model_table";
    case NodeKind::kDeepDive:
      return "deep_dive";
  }
  return "unknown";
}

ExperimentGraph ExperimentGraph::Build(const SuiteSpec& spec,
                                       const SuiteFilter& filter) {
  ExperimentGraph graph;
  std::map<std::string, size_t> dataset_nodes;
  std::map<std::string, size_t> cell_nodes;

  auto dataset_node = [&](const std::string& name) -> size_t {
    auto it = dataset_nodes.find(name);
    if (it != dataset_nodes.end()) return it->second;
    GraphNode node;
    node.id = graph.nodes_.size();
    node.kind = NodeKind::kDataset;
    node.label = "dataset/" + name;
    node.dataset = name;
    graph.nodes_.push_back(node);
    dataset_nodes.emplace(name, node.id);
    return node.id;
  };

  auto cell_node = [&](const CellKey& cell) -> size_t {
    std::string id = cell.Id();
    auto it = cell_nodes.find(id);
    if (it != cell_nodes.end()) return it->second;
    // Resolve the dataset dependency first: it may append a node, so the
    // cell's own id must be assigned after.
    size_t dataset_dep = dataset_node(cell.dataset);
    GraphNode node;
    node.id = graph.nodes_.size();
    node.kind = NodeKind::kCell;
    node.label = id;
    node.cell = cell;
    node.deps.push_back(dataset_dep);
    graph.nodes_.push_back(node);
    cell_nodes.emplace(id, node.id);
    return node.id;
  };

  for (size_t u = 0; u < spec.units.size(); ++u) {
    const SuiteUnit& unit = spec.units[u];
    bool by_name = filter.MatchesName(unit.name);
    std::vector<CellKey> all_cells = UnitCells(unit);

    // Which cells (or figure datasets) of this unit the filter keeps.
    std::vector<CellKey> kept;
    std::vector<std::string> kept_datasets;
    if (unit.kind == SuiteUnit::Kind::kFigure) {
      for (const std::string& name : AllDatasetNames()) {
        if (filter.Empty() || by_name ||
            filter.MatchesName(unit.name + "/" + name)) {
          kept_datasets.push_back(name);
        }
      }
    } else if (filter.Empty() || by_name) {
      kept = all_cells;
    } else {
      for (const CellKey& cell : all_cells) {
        if (filter.MatchesName(cell.Id())) kept.push_back(cell);
      }
    }

    bool selected;
    if (unit.only_on_filter) {
      selected = by_name;  // smoke-style units need to be named explicitly
    } else if (filter.Empty() || by_name) {
      selected = true;
    } else {
      selected = !kept.empty() || !kept_datasets.empty();
    }
    if (!selected) continue;
    graph.selected_.push_back(u);
    if (unit.kind != SuiteUnit::Kind::kFigure && kept.size() < all_cells.size()) {
      graph.narrowed_.push_back(u);
    }

    std::vector<size_t> cell_ids;
    cell_ids.reserve(kept.size());
    for (const CellKey& cell : kept) cell_ids.push_back(cell_node(cell));

    switch (unit.kind) {
      case SuiteUnit::Kind::kTables:
        for (size_t t = 0; t < unit.tables.size(); ++t) {
          GraphNode node;
          node.id = graph.nodes_.size();
          node.kind = NodeKind::kTable;
          node.label = unit.name + "/" + unit.tables[t].reference.label;
          node.deps = cell_ids;
          node.unit_index = u;
          node.table_index = t;
          graph.nodes_.push_back(node);
        }
        break;
      case SuiteUnit::Kind::kModelTable:
      case SuiteUnit::Kind::kDeepDive: {
        GraphNode node;
        node.id = graph.nodes_.size();
        node.kind = unit.kind == SuiteUnit::Kind::kModelTable
                        ? NodeKind::kModelTable
                        : NodeKind::kDeepDive;
        node.label = unit.name;
        node.deps = cell_ids;
        node.unit_index = u;
        graph.nodes_.push_back(node);
        break;
      }
      case SuiteUnit::Kind::kFigure:
        for (const std::string& name : kept_datasets) {
          size_t dataset_dep = dataset_node(name);  // may append a node
          GraphNode node;
          node.id = graph.nodes_.size();
          node.kind = NodeKind::kFigure;
          node.label = unit.name + "/" + name;
          node.dataset = name;
          node.intersectional = unit.fig_intersectional;
          node.unit_index = u;
          node.deps.push_back(dataset_dep);
          graph.nodes_.push_back(node);
        }
        break;
    }
  }
  return graph;
}

size_t ExperimentGraph::CountKind(NodeKind kind) const {
  size_t count = 0;
  for (const GraphNode& node : nodes_) {
    if (node.kind == kind) ++count;
  }
  return count;
}

std::vector<std::vector<size_t>> ExperimentGraph::Waves() const {
  std::vector<size_t> level(nodes_.size(), 0);
  size_t max_level = 0;
  // Nodes are created after their dependencies, so one forward pass
  // computes longest-chain levels.
  for (const GraphNode& node : nodes_) {
    for (size_t dep : node.deps) {
      level[node.id] = std::max(level[node.id], level[dep] + 1);
    }
    max_level = std::max(max_level, level[node.id]);
  }
  std::vector<std::vector<size_t>> waves(max_level + 1);
  for (const GraphNode& node : nodes_) waves[level[node.id]].push_back(node.id);
  return waves;
}

}  // namespace sched
}  // namespace fairclean
