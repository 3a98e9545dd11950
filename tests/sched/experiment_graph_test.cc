// Structural properties of the suite DAG: creation-ordered node ids (a
// regression guard — ids assigned before a dependency lookup that appends a
// node once corrupted the value slots), dataset/cell deduplication across
// units, wave consistency, filter semantics, and the resolve-once contract
// of TrySuiteOptionsFromEnv.

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sched/experiment_graph.h"
#include "sched/suite_runner.h"
#include "sched/suite_spec.h"

namespace fairclean {
namespace sched {
namespace {

ExperimentGraph BuildWithFilter(const std::string& filter_csv) {
  return ExperimentGraph::Build(PaperSuite(), SuiteFilter::Parse(filter_csv));
}

// Node ids must equal their index in nodes(): everything downstream
// (node_values_ slots, dep edges, wave ordering) indexes by id. The "smoke"
// build is the historical regression case — its table unit is the first to
// request a dataset node, so an id taken before the dependency lookup
// appends that node is stale.
TEST(ExperimentGraph, NodeIdsMatchIndices) {
  for (const std::string& filter : {std::string(), std::string("smoke"),
                                    std::string("fig1"),
                                    std::string("table_models"),
                                    std::string("deepdive")}) {
    ExperimentGraph graph = BuildWithFilter(filter);
    ASSERT_FALSE(graph.nodes().empty()) << "filter=" << filter;
    for (size_t i = 0; i < graph.nodes().size(); ++i) {
      EXPECT_EQ(graph.nodes()[i].id, i) << "filter=" << filter;
    }
  }
}

TEST(ExperimentGraph, DepsAreValidAndAcyclicByConstruction) {
  ExperimentGraph graph = BuildWithFilter("");
  for (const GraphNode& node : graph.nodes()) {
    for (size_t dep : node.deps) {
      ASSERT_LT(dep, graph.nodes().size());
      // Creation order is a topological order: deps precede their node.
      EXPECT_LT(dep, node.id);
    }
  }
}

TEST(ExperimentGraph, CellNodesDependOnExactlyTheirDataset) {
  ExperimentGraph graph = BuildWithFilter("");
  size_t cells = 0;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind != NodeKind::kCell) continue;
    ++cells;
    ASSERT_EQ(node.deps.size(), 1u) << node.label;
    const GraphNode& dep = graph.nodes()[node.deps[0]];
    EXPECT_EQ(dep.kind, NodeKind::kDataset) << node.label;
    EXPECT_EQ(dep.dataset, node.cell.dataset) << node.label;
  }
  EXPECT_EQ(cells, graph.CountKind(NodeKind::kCell));
}

// Content addressing at the graph level: one node per dataset, per cell
// key and per figure panel (dataset, single/intersectional), no matter how
// many units consume them. The model unit spans all three scopes and must
// add zero new cell nodes. The graph is the suite's only memo, so a
// duplicate node would run twice (a duplicate figure node would compute
// and write its panel twice).
TEST(ExperimentGraph, SharedDatasetAndCellNodesAreDeduplicated) {
  ExperimentGraph graph = BuildWithFilter("");
  std::set<std::string> datasets;
  std::set<std::string> cells;
  std::set<std::pair<std::string, bool>> figures;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind == NodeKind::kDataset) {
      EXPECT_TRUE(datasets.insert(node.dataset).second)
          << "duplicate dataset node " << node.dataset;
    } else if (node.kind == NodeKind::kCell) {
      EXPECT_TRUE(cells.insert(node.cell.Id()).second)
          << "duplicate cell node " << node.cell.Id();
    } else if (node.kind == NodeKind::kFigure) {
      EXPECT_TRUE(figures.emplace(node.dataset, node.intersectional).second)
          << "duplicate figure node " << node.label;
      // The scheduler reads the panel's dataset handle from deps[0].
      ASSERT_EQ(node.deps.size(), 1u) << node.label;
      EXPECT_EQ(graph.nodes()[node.deps[0]].kind, NodeKind::kDataset);
      EXPECT_EQ(graph.nodes()[node.deps[0]].dataset, node.dataset);
    }
  }
  // Fig. 1 and Fig. 2 each have one panel per dataset.
  EXPECT_EQ(figures.size(), 2 * datasets.size());

  SuiteSpec spec = PaperSuite();
  std::set<std::string> expected_cells;
  size_t with_repetition = 0;
  for (size_t index : graph.selected_units()) {
    for (const CellKey& cell : UnitCells(spec.units[index])) {
      expected_cells.insert(cell.Id());
      ++with_repetition;
    }
  }
  EXPECT_EQ(cells, expected_cells);
  // The model-table unit re-consumes every table unit's cells, so the
  // deduplicated count is well below the with-repetition count.
  EXPECT_LT(cells.size(), with_repetition);
}

TEST(ExperimentGraph, WavesPartitionNodesAndRespectDependencies) {
  ExperimentGraph graph = BuildWithFilter("");
  std::vector<std::vector<size_t>> waves = graph.Waves();
  std::map<size_t, size_t> wave_of;
  size_t total = 0;
  for (size_t w = 0; w < waves.size(); ++w) {
    size_t previous = 0;
    for (size_t i = 0; i < waves[w].size(); ++i) {
      size_t id = waves[w][i];
      ASSERT_TRUE(wave_of.emplace(id, w).second) << "node in two waves";
      if (i > 0) {
        EXPECT_GT(id, previous) << "ids not ascending in wave";
      }
      previous = id;
      ++total;
    }
  }
  ASSERT_EQ(total, graph.nodes().size());
  for (const GraphNode& node : graph.nodes()) {
    for (size_t dep : node.deps) {
      EXPECT_LT(wave_of.at(dep), wave_of.at(node.id))
          << node.label << " not strictly after its dependency";
    }
  }
  // Wave 0 is exactly the dependency-free nodes (the datasets).
  for (size_t id : waves.empty() ? std::vector<size_t>{} : waves[0]) {
    EXPECT_TRUE(graph.nodes()[id].deps.empty());
  }
}

TEST(ExperimentGraph, DefaultBuildExcludesFilterOnlyUnits) {
  SuiteSpec spec = PaperSuite();
  ExperimentGraph graph = BuildWithFilter("");
  for (size_t index : graph.selected_units()) {
    EXPECT_FALSE(spec.units[index].only_on_filter)
        << spec.units[index].name << " selected without a filter";
  }
  EXPECT_TRUE(graph.narrowed_units().empty());
}

TEST(ExperimentGraph, SmokeFilterSelectsOnlyTheSmokeUnit) {
  SuiteSpec spec = PaperSuite();
  ExperimentGraph graph = BuildWithFilter("smoke");
  ASSERT_EQ(graph.selected_units().size(), 1u);
  EXPECT_EQ(spec.units[graph.selected_units()[0]].name, "smoke");
  EXPECT_TRUE(graph.narrowed_units().empty());
  // One dataset, its three model cells, and the unit's table aggregation.
  EXPECT_EQ(graph.CountKind(NodeKind::kDataset), 1u);
  EXPECT_EQ(graph.CountKind(NodeKind::kCell), 3u);
}

TEST(ExperimentGraph, CellTokenNarrowsItsUnit) {
  ExperimentGraph graph = BuildWithFilter("german/missing_values/knn");
  EXPECT_EQ(graph.CountKind(NodeKind::kCell), 1u);
  EXPECT_FALSE(graph.narrowed_units().empty());
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind == NodeKind::kCell) {
      EXPECT_EQ(node.cell.Id(), "german/missing_values/knn");
    }
  }
}

// Suite options are resolved from the environment exactly once, at the
// TrySuiteOptionsFromEnv call — a later environment change must not leak
// into an already-resolved options struct, and a new call must observe it.
TEST(SuiteOptions, EnvironmentIsResolvedOnceAtTheCall) {
  ASSERT_EQ(::setenv("FAIRCLEAN_SAMPLE", "777", 1), 0);
  ASSERT_EQ(::setenv("FAIRCLEAN_MAX_RETRIES", "5", 1), 0);
  Result<SuiteOptions> first = TrySuiteOptionsFromEnv();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->study.sample_size, 777u);
  EXPECT_EQ(first->max_retries, 5u);

  ASSERT_EQ(::setenv("FAIRCLEAN_SAMPLE", "888", 1), 0);
  EXPECT_EQ(first->study.sample_size, 777u);
  Result<SuiteOptions> second = TrySuiteOptionsFromEnv();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->study.sample_size, 888u);

  ASSERT_EQ(::unsetenv("FAIRCLEAN_SAMPLE"), 0);
  ASSERT_EQ(::unsetenv("FAIRCLEAN_MAX_RETRIES"), 0);
  Result<SuiteOptions> defaults = TrySuiteOptionsFromEnv();
  ASSERT_TRUE(defaults.ok()) << defaults.status().ToString();
  EXPECT_EQ(defaults->study.sample_size, 3500u);
  EXPECT_EQ(defaults->max_retries, 2u);
}

}  // namespace
}  // namespace sched
}  // namespace fairclean
