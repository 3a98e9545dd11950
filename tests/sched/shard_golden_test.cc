// Multi-process golden identity for the shard execution layer (DESIGN.md
// Section 16): real forked claim-shard processes — 2 and 4 — produce the
// smoke grid over one shared cache directory, and the merged report plus
// every cache record must be byte-identical to a single-process baseline. The binary is registered at FAIRCLEAN_THREADS
// 1, 2, and 4 (plain add_test), so the multi-process identity is pinned at
// every suite fan-out width.
//
// Every suite run — baseline and shards — happens in a forked child
// that _exits straight after: the shared fold pool is sized and spawned
// once per process, and threads do not survive fork, so the parent
// process must never run a suite before forking workers.

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/safe_io.h"
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
  std::string dir = testing::TempDir() + "/shard_golden_" +
                    std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

SuiteOptions ShardOptions(const std::string& cache_dir,
                          const std::string& report_path) {
  SuiteOptions options;
  options.study = GoldenStudy();
  options.cache_dir = cache_dir;
  options.threads = 0;  // FAIRCLEAN_THREADS: this registration's width
  options.report_path = report_path;
  return options;
}

/// Forks a child that runs one suite entry point and _exits with 0 on OK.
/// No gtest assertions in the child: it reports through its exit status.
enum class ChildRun { kSingle, kShard };

pid_t ForkRun(ChildRun what, const SuiteOptions& options) {
  pid_t pid = fork();
  if (pid != 0) return pid;
  SuiteScheduler scheduler(options);
  Status status;
  switch (what) {
    case ChildRun::kSingle:
      status = scheduler.RunSuite(PaperSuite(), SuiteFilter::Parse("smoke"));
      break;
    case ChildRun::kShard:
      status =
          scheduler.RunSuiteShard(PaperSuite(), SuiteFilter::Parse("smoke"));
      break;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "child run failed: %s\n",
                 status.ToString().c_str());
  }
  _exit(status.ok() ? 0 : 1);
}

[[nodiscard]] bool WaitOk(pid_t pid) {
  int wstatus = 0;
  if (waitpid(pid, &wstatus, 0) != pid) return false;
  return WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
}

std::map<std::string, std::string> ReadDirFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    files[entry.path().filename().string()] =
        ReadFileToString(entry.path().string()).ValueOrDie();
  }
  return files;
}

struct Baseline {
  std::string report;
  std::map<std::string, std::string> files;
};

/// The single-process smoke run every sharded scenario must reproduce byte
/// for byte. Computed once per test process, in a forked child.
const Baseline& GetBaseline() {
  static const Baseline* baseline = [] {
    auto* value = new Baseline();
    std::string dir = FreshDir("baseline");
    std::string report = dir + "/report.json";
    if (!WaitOk(ForkRun(ChildRun::kSingle, ShardOptions(dir + "/cache",
                                                        report)))) {
      return value;  // empty: every test asserts non-empty first
    }
    value->report = ReadFileToString(report).ValueOrDie();
    value->files = ReadDirFiles(dir + "/cache");
    return value;
  }();
  return *baseline;
}

void ExpectMatchesBaseline(const std::string& scenario,
                           const std::string& report_path,
                           const std::string& cache_dir) {
  const Baseline& baseline = GetBaseline();
  ASSERT_FALSE(baseline.report.empty());

  Result<std::string> merged = ReadFileToString(report_path);
  ASSERT_TRUE(merged.ok()) << scenario << ": " << merged.status().ToString();
  EXPECT_EQ(*merged, baseline.report)
      << scenario << ": merged report differs from single-process run";

  std::map<std::string, std::string> files = ReadDirFiles(cache_dir);
  ASSERT_EQ(files.size(), baseline.files.size()) << scenario;
  for (const auto& [name, bytes] : baseline.files) {
    ASSERT_TRUE(files.count(name)) << scenario << ": missing " << name;
    EXPECT_EQ(files.at(name), bytes)
        << scenario << ": " << name << " differs byte-for-byte";
  }
}

void RunShards(size_t count, const std::string& scenario) {
  const Baseline& baseline = GetBaseline();
  ASSERT_FALSE(baseline.report.empty()) << "baseline run failed";

  std::string dir = FreshDir(scenario);
  std::string cache = dir + "/cache";
  std::string report = dir + "/report.json";

  // All N shard processes run concurrently over the one cache dir — that
  // concurrency IS the scenario (conflicts, cache skips,
  // and the merge election only happen with live siblings).
  std::vector<pid_t> pids;
  for (size_t i = 0; i < count; ++i) {
    SuiteOptions options = ShardOptions(cache, report);
    options.shard.mode = ShardMode::kClaim;
    options.shard.index = i;
    options.shard.count = count;
    pids.push_back(ForkRun(ChildRun::kShard, options));
  }
  for (pid_t pid : pids) {
    EXPECT_TRUE(WaitOk(pid)) << scenario << ": shard process failed";
  }

  // Every shard leaves its partial report behind.
  for (size_t i = 0; i < count; ++i) {
    SuiteOptions options = ShardOptions(cache, report);
    options.shard.mode = ShardMode::kClaim;
    options.shard.index = i;
    options.shard.count = count;
    EXPECT_TRUE(std::filesystem::exists(
        SuiteScheduler::PartialReportPath(report, options.shard)))
        << scenario << ": missing partial report of shard " << (i + 1);
  }

  // The last finishing shard won the __merge__ election and wrote the
  // merged report itself.

  ExpectMatchesBaseline(scenario, report, cache);
}

TEST(ShardGolden, BaselineChildSucceeds) {
  const Baseline& baseline = GetBaseline();
  ASSERT_FALSE(baseline.report.empty());
  // 3 cache records + 3 class records + 9 repeat slices (3 cells x 3
  // repeats); the report carries the classifier block the partial reports
  // must agree with.
  EXPECT_EQ(baseline.files.size(), 15u);
  EXPECT_NE(baseline.report.find("\"classifier\":"), std::string::npos);
}

TEST(ShardGolden, ClaimTwoShardsAutoMergeMatchesSingleProcess) {
  RunShards(2, "claim2");
}

TEST(ShardGolden, ClaimFourShardsAutoMergeMatchesSingleProcess) {
  RunShards(4, "claim4");
}

}  // namespace
}  // namespace sched
}  // namespace fairclean
