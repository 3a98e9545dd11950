// Persisted figure panels (DESIGN.md Sections 6, 9 and 11): every
// non-skipped Fig. 1 / Fig. 2 panel is written once to the on-disk store
// and served from it on every later run. The tests pin that a warm run
// reproduces the cold report byte for byte without writing anything, that
// each record round-trips the panel bit for bit, and that damaged records,
// failed writes and failed reads all fall back to recomputing the panel
// without changing a report byte.
//
// The binary is registered at FAIRCLEAN_THREADS 1 and 4: figure producers
// and cell producers write the one store from the suite's pool threads.

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/random.h"
#include "common/safe_io.h"
#include "core/disparity.h"
#include "obs/metrics.h"
#include "sched/experiment_graph.h"
#include "sched/figure_record.h"
#include "sched/suite_runner.h"
#include "sched/suite_spec.h"

namespace fairclean {
namespace sched {
namespace {

StudyOptions GoldenStudy() {
  StudyOptions options;
  options.sample_size = 300;
  options.num_repeats = 3;
  options.cv_folds = 3;
  options.seed = 42;
  return options;
}

std::string FreshDir(const std::string& name) {
  // Per-process paths: the width registrations of this binary run
  // concurrently under ctest -j and must not share cache directories.
  std::string dir = testing::TempDir() + "/figure_record_" +
                    std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

uint64_t GlobalCount(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

struct FigureRun {
  Status status;
  std::string report;
  std::string stdout_text;
  uint64_t loaded = 0;
  uint64_t written = 0;
  uint64_t quarantined = 0;
  uint64_t cache_hits = 0;
};

FigureRun RunSuite(const std::string& cache_dir,
                   const std::string& filter = "fig1,fig2") {
  SuiteOptions options;
  options.study = GoldenStudy();
  options.cache_dir = cache_dir;
  options.threads = 0;  // FAIRCLEAN_THREADS of this registration
  const uint64_t loaded = GlobalCount("sched.figure_records_loaded");
  const uint64_t written = GlobalCount("sched.figure_records_written");
  SuiteScheduler scheduler(options);
  FigureRun run;
  testing::internal::CaptureStdout();
  run.status = scheduler.RunSuite(PaperSuite(), SuiteFilter::Parse(filter));
  run.stdout_text = testing::internal::GetCapturedStdout();
  run.report = scheduler.report_json();
  run.loaded = GlobalCount("sched.figure_records_loaded") - loaded;
  run.written = GlobalCount("sched.figure_records_written") - written;
  exec::RunDiagnostics diagnostics = scheduler.AggregateDiagnostics();
  run.quarantined = diagnostics.corrupt_quarantined;
  run.cache_hits = diagnostics.cache_hits;
  return run;
}

/// The figure run without a cache dir: panels computed in memory, as
/// before figure records existed. Every cached run must match it.
const FigureRun& Reference() {
  static const FigureRun* run = new FigureRun(RunSuite(""));
  return *run;
}

struct Panel {
  std::string dataset;
  bool intersectional = false;
  std::string key;
};

/// The non-skipped panels of the fig1,fig2 graph: Fig. 2 skips datasets
/// without an intersectional group definition.
const std::vector<Panel>& Panels() {
  static const std::vector<Panel>* panels = [] {
    auto* out = new std::vector<Panel>();
    ExperimentGraph graph =
        ExperimentGraph::Build(PaperSuite(), SuiteFilter::Parse("fig1,fig2"));
    for (const GraphNode& node : graph.nodes()) {
      if (node.kind != NodeKind::kFigure) continue;
      GeneratedDataset dataset =
          MakeSuiteDataset(node.dataset, GoldenStudy().seed).ValueOrDie();
      if (node.intersectional && !dataset.spec.intersectional) continue;
      out->push_back({node.dataset, node.intersectional,
                      FigureRecordKey(node.dataset, node.intersectional,
                                      GoldenStudy().seed)});
    }
    return out;
  }();
  return *panels;
}

/// File name -> bytes of every regular file in `dir`.
std::map<std::string, std::string> ReadDir(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    files[entry.path().filename().string()] =
        ReadFileToString(entry.path().string()).ValueOrDie();
  }
  return files;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameRows(const std::vector<DisparityRow>& got,
                    const std::vector<DisparityRow>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    const DisparityRow& g = got[i];
    const DisparityRow& w = want[i];
    EXPECT_EQ(g.dataset, w.dataset) << what << " row " << i;
    EXPECT_EQ(g.detector, w.detector) << what << " row " << i;
    EXPECT_EQ(g.group_key, w.group_key) << what << " row " << i;
    EXPECT_EQ(g.intersectional, w.intersectional) << what << " row " << i;
    EXPECT_EQ(g.privileged_total, w.privileged_total) << what << " row " << i;
    EXPECT_EQ(g.disadvantaged_total, w.disadvantaged_total)
        << what << " row " << i;
    EXPECT_EQ(g.privileged_flagged, w.privileged_flagged)
        << what << " row " << i;
    EXPECT_EQ(g.disadvantaged_flagged, w.disadvantaged_flagged)
        << what << " row " << i;
    EXPECT_TRUE(SameBits(g.g2.statistic, w.g2.statistic))
        << what << " row " << i;
    EXPECT_TRUE(SameBits(g.g2.p_value, w.g2.p_value)) << what << " row " << i;
    EXPECT_EQ(g.significant, w.significant) << what << " row " << i;
  }
}

/// Disarms the fault injector even when an assertion returns early.
struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    EXPECT_TRUE(FaultInjector::Global().Configure(spec, 1).ok()) << spec;
  }
  ~FaultGuard() { FaultInjector::Global().Reset(); }
};

TEST(FigureRecord, ColdRunWritesEveryPanelAndWarmRunOnlyLoads) {
  const FigureRun& reference = Reference();
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
  EXPECT_EQ(reference.loaded, 0u);
  EXPECT_EQ(reference.written, 0u);
  // Five Fig. 1 panels and four Fig. 2 panels (credit has no
  // intersectional group definition).
  ASSERT_EQ(Panels().size(), 9u);

  std::string dir = FreshDir("cold_warm");
  FigureRun cold = RunSuite(dir);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_EQ(cold.report, reference.report);
  EXPECT_EQ(cold.stdout_text, reference.stdout_text);
  EXPECT_EQ(cold.loaded, 0u);
  EXPECT_EQ(cold.written, Panels().size());
  std::map<std::string, std::string> files = ReadDir(dir);
  ASSERT_EQ(files.size(), Panels().size());
  for (const Panel& panel : Panels()) {
    EXPECT_EQ(files.count(panel.key), 1u) << panel.key;
  }

  std::map<std::string, std::filesystem::file_time_type> mtimes;
  for (const Panel& panel : Panels()) {
    mtimes[panel.key] = std::filesystem::last_write_time(dir + "/" + panel.key);
  }
  FigureRun warm = RunSuite(dir);
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_EQ(warm.report, reference.report);
  EXPECT_EQ(warm.stdout_text, reference.stdout_text);
  EXPECT_EQ(warm.loaded, Panels().size());
  EXPECT_EQ(warm.written, 0u);
  EXPECT_EQ(warm.quarantined, 0u);
  // A warm hit writes nothing: same files, same bytes, untouched mtimes.
  EXPECT_EQ(ReadDir(dir), files);
  for (const Panel& panel : Panels()) {
    EXPECT_EQ(std::filesystem::last_write_time(dir + "/" + panel.key),
              mtimes.at(panel.key))
        << panel.key;
  }
}

TEST(FigureRecord, EveryPersistedPanelRoundTripsBitForBit) {
  std::string dir = FreshDir("round_trip");
  ASSERT_TRUE(RunSuite(dir).status.ok());
  for (const Panel& panel : Panels()) {
    GeneratedDataset dataset =
        MakeSuiteDataset(panel.dataset, GoldenStudy().seed).ValueOrDie();
    Rng rng(GoldenStudy().seed + (panel.intersectional ? 19 : 17));
    Result<std::vector<DisparityRow>> expected = AnalyzeDisparities(
        dataset, panel.intersectional, DisparityOptions(), &rng);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_FALSE(expected->empty()) << panel.key;

    std::string bytes = ReadFileToString(dir + "/" + panel.key).ValueOrDie();
    Result<std::vector<DisparityRow>> decoded =
        DecodeFigureRecord(bytes, panel.dataset, panel.intersectional);
    ASSERT_TRUE(decoded.ok()) << panel.key << ": "
                              << decoded.status().ToString();
    ExpectSameRows(*decoded, *expected, panel.key);
    // The encoding is canonical: re-encoding the decoded rows gives the
    // file's exact bytes.
    EXPECT_EQ(EncodeFigureRecord(panel.dataset, panel.intersectional,
                                 *decoded),
              bytes)
        << panel.key;
    // A record is only ever served for its own panel.
    EXPECT_FALSE(
        DecodeFigureRecord(bytes, panel.dataset, !panel.intersectional).ok())
        << panel.key;
  }
}

TEST(FigureRecord, EdgeValuesAndEscapedStringsRoundTripBitForBit) {
  const double values[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::infinity(),
                           1.0,
                           0.1,
                           1.0 / 3.0};
  std::vector<DisparityRow> rows;
  for (double value : values) {
    DisparityRow row;
    row.dataset = "ds \"quoted\" \\ back\nslash";
    row.detector = "det\ttab";
    row.group_key = "sex*race";
    row.intersectional = true;
    row.privileged_total = 123456789;
    row.privileged_flagged = 12345;
    row.disadvantaged_total = 7;
    row.disadvantaged_flagged = 7;
    row.g2.statistic = value;
    row.g2.p_value = -value;
    row.significant = value > 0.5;
    rows.push_back(row);
  }
  std::string bytes = EncodeFigureRecord("ds", true, rows);
  Result<std::vector<DisparityRow>> decoded =
      DecodeFigureRecord(bytes, "ds", true);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameRows(*decoded, rows, "edge values");

  Result<std::vector<DisparityRow>> empty =
      DecodeFigureRecord(EncodeFigureRecord("ds", false, {}), "ds", false);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty->empty());
  EXPECT_FALSE(DecodeFigureRecord(bytes, "other", true).ok());
}

TEST(FigureRecord, DamagedRecordsAreQuarantinedAndRecomputed) {
  std::string dir = FreshDir("damaged");
  ASSERT_TRUE(RunSuite(dir).status.ok());
  std::map<std::string, std::string> intact = ReadDir(dir);
  ASSERT_GE(Panels().size(), 3u);
  const std::string truncated = Panels()[0].key;
  const std::string flipped = Panels()[1].key;
  const std::string misplaced = Panels()[2].key;

  std::string damaged_truncated =
      intact.at(truncated).substr(0, intact.at(truncated).size() / 2);
  std::string damaged_flipped = intact.at(flipped);
  damaged_flipped[damaged_flipped.size() / 3] ^= 0x04;
  // Intact footer, wrong panel: the record of another dataset.
  const std::string& damaged_misplaced = intact.at(truncated);
  ASSERT_TRUE(WriteFileAtomic(dir + "/" + truncated, damaged_truncated).ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/" + flipped, damaged_flipped).ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/" + misplaced, damaged_misplaced).ok());

  FigureRun rerun = RunSuite(dir);
  ASSERT_TRUE(rerun.status.ok()) << rerun.status.ToString();
  EXPECT_EQ(rerun.report, Reference().report);
  EXPECT_EQ(rerun.stdout_text, Reference().stdout_text);
  EXPECT_EQ(rerun.loaded, Panels().size() - 3);
  EXPECT_EQ(rerun.written, 3u);
  EXPECT_EQ(rerun.quarantined, 3u);

  std::map<std::string, std::string> after = ReadDir(dir);
  // The evidence is kept; every record is whole again.
  EXPECT_EQ(after.at(truncated + ".corrupt"), damaged_truncated);
  EXPECT_EQ(after.at(flipped + ".corrupt"), damaged_flipped);
  EXPECT_EQ(after.at(misplaced + ".corrupt"), damaged_misplaced);
  EXPECT_EQ(after.size(), intact.size() + 3);
  for (const auto& [name, bytes] : intact) {
    EXPECT_EQ(after.at(name), bytes) << name;
  }

  FigureRun warm = RunSuite(dir);
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_EQ(warm.report, Reference().report);
  EXPECT_EQ(warm.loaded, Panels().size());
  EXPECT_EQ(warm.written, 0u);
  EXPECT_EQ(warm.quarantined, 0u);
}

TEST(FigureRecord, FailedWriteKeepsReportAndNextRunRecomputes) {
  std::string dir = FreshDir("write_fault");
  {
    FaultGuard faults("cache_write:1");
    FigureRun faulted = RunSuite(dir);
    ASSERT_TRUE(faulted.status.ok()) << faulted.status.ToString();
    EXPECT_EQ(faulted.report, Reference().report);
    EXPECT_EQ(faulted.stdout_text, Reference().stdout_text);
    EXPECT_EQ(faulted.written, 0u);
    EXPECT_EQ(FaultInjector::Global().fires("cache_write"), Panels().size());
  }
  EXPECT_TRUE(ReadDir(dir).empty());

  FigureRun recomputed = RunSuite(dir);
  ASSERT_TRUE(recomputed.status.ok()) << recomputed.status.ToString();
  EXPECT_EQ(recomputed.report, Reference().report);
  EXPECT_EQ(recomputed.loaded, 0u);
  EXPECT_EQ(recomputed.written, Panels().size());

  FigureRun warm = RunSuite(dir);
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_EQ(warm.report, Reference().report);
  EXPECT_EQ(warm.loaded, Panels().size());
}

TEST(FigureRecord, ReadsProbeCacheReadLikeTheSliceLoad) {
  std::string dir = FreshDir("read_fault");
  {
    // Like the slice load, the probe sits behind the existence check:
    // a cold run has no record to read and draws nothing.
    FaultGuard faults("cache_read:1");
    FigureRun cold = RunSuite(dir);
    ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
    EXPECT_EQ(FaultInjector::Global().fires("cache_read"), 0u);
    EXPECT_EQ(cold.written, Panels().size());
  }
  std::map<std::string, std::string> intact = ReadDir(dir);
  {
    // A failed read is a transient miss: recompute and rewrite the same
    // bytes, quarantine nothing.
    FaultGuard faults("cache_read:1");
    FigureRun faulted = RunSuite(dir);
    ASSERT_TRUE(faulted.status.ok()) << faulted.status.ToString();
    EXPECT_EQ(faulted.report, Reference().report);
    EXPECT_EQ(FaultInjector::Global().fires("cache_read"), Panels().size());
    EXPECT_EQ(faulted.loaded, 0u);
    EXPECT_EQ(faulted.written, Panels().size());
    EXPECT_EQ(faulted.quarantined, 0u);
  }
  EXPECT_EQ(ReadDir(dir), intact);

  FigureRun warm = RunSuite(dir);
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_EQ(warm.report, Reference().report);
  EXPECT_EQ(warm.loaded, Panels().size());
}

TEST(FigureRecord, FiguresAndCellsShareOneStore) {
  std::string dir = FreshDir("shared");
  FigureRun cold = RunSuite(dir, "smoke,fig1,fig2");
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_EQ(cold.written, Panels().size());

  FigureRun warm = RunSuite(dir, "smoke,fig1,fig2");
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_EQ(warm.report, cold.report);
  EXPECT_EQ(warm.stdout_text, cold.stdout_text);
  EXPECT_EQ(warm.loaded, Panels().size());
  EXPECT_EQ(warm.written, 0u);
  // StudyDriver's cache_hits counts cells only; figure loads have their
  // own counter.
  EXPECT_EQ(warm.cache_hits, 3u);

  // The figure section of the mixed report is the figure-only report's.
  const std::string& reference = Reference().report;
  const size_t figures = reference.find(",\"figures\":[");
  const size_t tables = reference.find(",\"tables\":[");
  ASSERT_NE(figures, std::string::npos);
  ASSERT_NE(tables, std::string::npos);
  EXPECT_NE(warm.report.find(reference.substr(figures, tables - figures)),
            std::string::npos);
}

}  // namespace
}  // namespace sched
}  // namespace fairclean
