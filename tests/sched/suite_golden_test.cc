// Golden end-to-end suite test (DESIGN.md Section 9): runs the "smoke"
// subset of the paper grid at a tiny scale and pins the scheduler's
// identity contract — the merged report and every cache record are
// byte-identical between a sequential run, a run at the environment's
// thread width, a pure cache-hit rerun, and a killed-and-resumed run; and
// each cell's cache record matches what a standalone StudyDriver produces,
// verified by sha256 of the exact file bytes.
//
// The binary is registered at FAIRCLEAN_THREADS 1, 2, and 4 (plain add_test
// in tests/CMakeLists.txt): the env-width runs resolve threads = 0 against
// that variable, so each registration checks a different suite fan-out
// against the same sequential baseline.

#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/safe_io.h"
#include "common/strings.h"
#include "exec/study_driver.h"
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
  std::string dir = testing::TempDir() + "/suite_golden_" +
                    std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

struct SuiteRun {
  Status status;
  std::string report;
  /// Cache-file basename -> exact file bytes. Includes the per-cell
  /// "class:" classification records the scheduler persists next to each
  /// cache record — their bytes are part of the identity contract too.
  std::map<std::string, std::string> files;
};

/// Files whose name starts with `prefix`.
size_t CountWithPrefix(const std::map<std::string, std::string>& files,
                       const std::string& prefix) {
  size_t count = 0;
  for (const auto& [name, bytes] : files) {
    if (name.rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

/// Cell records proper, excluding the "class:" classification and
/// "slice:" repeat records.
size_t CacheRecordCount(const std::map<std::string, std::string>& files) {
  return files.size() - CountWithPrefix(files, "class:") -
         CountWithPrefix(files, "slice:");
}

SuiteRun RunSmoke(size_t threads, const std::string& cache_dir) {
  SuiteOptions options;
  options.study = GoldenStudy();
  options.cache_dir = cache_dir;
  options.threads = threads;
  SuiteScheduler scheduler(options);
  SuiteRun run;
  run.status = scheduler.RunSuite(PaperSuite(), SuiteFilter::Parse("smoke"));
  run.report = scheduler.report_json();
  for (const auto& entry : std::filesystem::directory_iterator(cache_dir)) {
    if (!entry.is_regular_file()) continue;
    run.files[entry.path().filename().string()] =
        ReadFileToString(entry.path().string()).ValueOrDie();
  }
  return run;
}

// The sequential (threads = 1) run every scenario must reproduce byte for
// byte. Computed once per process; its cache directory stays on disk for
// the cache-hit and sha256 scenarios.
const std::string& BaselineDir() {
  static const std::string* dir = new std::string(FreshDir("baseline"));
  return *dir;
}

const SuiteRun& Baseline() {
  static const SuiteRun* run = new SuiteRun(RunSmoke(1, BaselineDir()));
  return *run;
}

TEST(SuiteGolden, SequentialBaselineSucceeds) {
  const SuiteRun& baseline = Baseline();
  ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();
  EXPECT_FALSE(baseline.report.empty());
  // One cache record, one "class:" classification record and one slice
  // record per repeat for each smoke cell (german missing values x three
  // models, three repeats each, none skipped).
  EXPECT_EQ(baseline.files.size(), 15u);
  EXPECT_EQ(CacheRecordCount(baseline.files), 3u);
  EXPECT_EQ(CountWithPrefix(baseline.files, "class:"), 3u);
  EXPECT_EQ(CountWithPrefix(baseline.files, "slice:"), 9u);
  for (const auto& [name, bytes] : baseline.files) {
    EXPECT_FALSE(bytes.empty()) << name;
  }
  // The report's artifacts block is derived structurally from the graph:
  // the smoke graph is 1 dataset node + 3 cell nodes — 4 distinct
  // artifacts, 3 dataset re-reads by the cell producers.
  EXPECT_NE(
      baseline.report.find("\"artifacts\":{\"produced\":4,\"reused\":3}"),
      std::string::npos)
      << baseline.report;
}

// The full-suite figure output is byte-identical to the standalone fig1 /
// fig2 bodies (RunUnit is the figure benches' path): with both figure
// units in one graph, each unit's rendering — in particular its "summary
// vs paper" counts — must cover that unit's own figure nodes only.
TEST(SuiteGolden, FigureUnitsMatchStandaloneUnitRunsByteForByte) {
  SuiteOptions options;
  options.study = GoldenStudy();
  options.cache_dir = "";  // figure units never touch the driver cache
  options.threads = 1;

  SuiteSpec spec = PaperSuite();
  std::map<std::string, std::string> standalone;
  for (const SuiteUnit& unit : spec.units) {
    if (unit.kind != SuiteUnit::Kind::kFigure) continue;
    SuiteScheduler scheduler(options);
    testing::internal::CaptureStdout();
    Status status = scheduler.RunUnit(unit);
    standalone[unit.name] = testing::internal::GetCapturedStdout();
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_NE(standalone[unit.name].find("== summary vs paper =="),
              std::string::npos)
        << unit.name;
  }
  ASSERT_EQ(standalone.size(), 2u);

  SuiteScheduler scheduler(options);
  testing::internal::CaptureStdout();
  Status status = scheduler.RunSuite(spec, SuiteFilter::Parse("fig1,fig2"));
  std::string suite_out = testing::internal::GetCapturedStdout();
  ASSERT_TRUE(status.ok()) << status.ToString();

  // RunSuite prints heading + body + "\n" per selected unit, RunUnit
  // prints heading + body; units render in spec order.
  EXPECT_EQ(suite_out,
            standalone.at("fig1") + "\n" + standalone.at("fig2") + "\n");

  // On a fresh run the structurally derived artifacts block must agree
  // with the store's runtime counters, and figure units sharing the five
  // datasets must actually reuse artifacts.
  EXPECT_GT(scheduler.artifacts().reused(), 0u);
  std::string artifacts = StrFormat(
      "\"artifacts\":{\"produced\":%llu,\"reused\":%llu}",
      static_cast<unsigned long long>(scheduler.artifacts().produced()),
      static_cast<unsigned long long>(scheduler.artifacts().reused()));
  EXPECT_NE(scheduler.report_json().find(artifacts), std::string::npos)
      << scheduler.report_json();
}

TEST(SuiteGolden, EnvWidthRunMatchesSequentialByteForByte) {
  const SuiteRun& baseline = Baseline();
  ASSERT_TRUE(baseline.status.ok());
  // threads = 0 resolves FAIRCLEAN_THREADS — the width this registration
  // of the binary is pinned to.
  std::string dir = FreshDir("env_width");
  SuiteRun parallel = RunSmoke(0, dir);
  ASSERT_TRUE(parallel.status.ok()) << parallel.status.ToString();
  EXPECT_EQ(parallel.report, baseline.report);
  ASSERT_EQ(parallel.files.size(), baseline.files.size());
  for (const auto& [name, bytes] : baseline.files) {
    ASSERT_TRUE(parallel.files.count(name)) << name;
    EXPECT_EQ(parallel.files.at(name), bytes)
        << name << " differs from the sequential record";
  }
}

TEST(SuiteGolden, RerunOnWarmCacheIsByteIdenticalAndAllHits) {
  const SuiteRun& baseline = Baseline();
  ASSERT_TRUE(baseline.status.ok());
  SuiteOptions options;
  options.study = GoldenStudy();
  options.cache_dir = BaselineDir();
  options.threads = 0;
  SuiteScheduler scheduler(options);
  ASSERT_TRUE(
      scheduler.RunSuite(PaperSuite(), SuiteFilter::Parse("smoke")).ok());
  EXPECT_EQ(scheduler.report_json(), baseline.report);
  exec::RunDiagnostics diagnostics = scheduler.AggregateDiagnostics();
  EXPECT_EQ(diagnostics.cache_hits, 3u);
  EXPECT_EQ(diagnostics.repeats_run, 0u);
}

// Each cell's cache record is byte-identical to what a standalone
// StudyDriver (the legacy single-bench path) persists for the same
// configuration, pinned via sha256 of the exact file bytes and
// cross-checked against the scheduler's recorded artifact digest.
TEST(SuiteGolden, CellRecordsMatchStandaloneDriverSha256) {
  const SuiteRun& baseline = Baseline();
  ASSERT_TRUE(baseline.status.ok());

  SuiteSpec spec = PaperSuite();
  const SuiteUnit* smoke = nullptr;
  for (const SuiteUnit& unit : spec.units) {
    if (unit.name == "smoke") smoke = &unit;
  }
  ASSERT_NE(smoke, nullptr);
  std::vector<CellKey> cells = UnitCells(*smoke);
  ASSERT_EQ(cells.size(), CacheRecordCount(baseline.files));

  // A scheduler over the baseline cache reports each cell's digest.
  SuiteOptions options;
  options.study = GoldenStudy();
  options.cache_dir = BaselineDir();
  options.threads = 1;
  SuiteScheduler scheduler(options);

  std::string standalone_dir = FreshDir("standalone");
  for (const CellKey& cell : cells) {
    exec::StudyDriverOptions driver_options;
    driver_options.study = GoldenStudy();
    driver_options.cache_dir = standalone_dir;
    exec::StudyDriver driver(driver_options);
    Result<GeneratedDataset> dataset =
        MakeSuiteDataset(cell.dataset, driver_options.study.seed);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    ASSERT_TRUE(
        driver.RunOrLoad(*dataset, cell.error_type, cell.model).ok());

    std::string path = exec::StudyDriver::CachePath(
        driver_options, cell.dataset, cell.error_type, cell.model);
    Result<std::string> bytes = ReadFileToString(path);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

    std::string basename = std::filesystem::path(path).filename().string();
    ASSERT_TRUE(baseline.files.count(basename)) << basename;
    EXPECT_EQ(*bytes, baseline.files.at(basename)) << cell.Id();

    Result<std::shared_ptr<const CellArtifact>> artifact =
        scheduler.Cell(cell);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    EXPECT_EQ((*artifact)->cache_file, basename);
    EXPECT_EQ((*artifact)->sha256, Sha256Hex(*bytes)) << cell.Id();
  }
}

// Kill-and-resume: an injected hard interruption fails the run mid-suite;
// rerunning over the same cache directory reuses the slices written so far
// and converges to the exact baseline bytes.
TEST(SuiteGolden, KillAndResumeReproducesReportAndCache) {
  const SuiteRun& baseline = Baseline();
  ASSERT_TRUE(baseline.status.ok());

  std::string dir = FreshDir("resume");
  ASSERT_TRUE(FaultInjector::Global().Configure("interrupt:1:1", 1).ok());
  SuiteRun interrupted = RunSmoke(0, dir);
  FaultInjector::Global().Reset();
  ASSERT_FALSE(interrupted.status.ok())
      << "injected interrupt did not surface";

  SuiteRun resumed = RunSmoke(0, dir);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(resumed.report, baseline.report);
  ASSERT_EQ(resumed.files.size(), baseline.files.size());
  for (const auto& [name, bytes] : baseline.files) {
    ASSERT_TRUE(resumed.files.count(name)) << name;
    EXPECT_EQ(resumed.files.at(name), bytes)
        << name << " differs after kill-and-resume";
  }
}

}  // namespace
}  // namespace sched
}  // namespace fairclean
