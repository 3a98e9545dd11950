// Kill -9 soak for a single suite process (DESIGN.md Section 16): a
// RunSuite over the smoke subset — with cache-write faults armed —
// SIGKILLs itself at its first durable slice write, mid-cell. A plain rerun
// over the same cache dir must reuse the repeat slices the dead run left,
// quarantine nothing, and converge to the exact report and cache bytes of
// an unfaulted run.
//
// Every suite run happens in a forked child (a killed process cannot report
// back, and threads never survive fork), and the crash point is the
// scheduler's cell checkpoint hook — deterministic, because the hook only
// fires after a slice record is durably on disk.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/safe_io.h"
#include "sched/suite_runner.h"
#include "sched/suite_spec.h"

namespace fairclean {
namespace sched {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/suite_soak_" +
                    std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

SuiteOptions SoakOptions(const std::string& dir) {
  SuiteOptions options;
  options.study.sample_size = 300;
  options.study.num_repeats = 3;
  options.study.cv_folds = 3;
  options.study.seed = 42;
  options.cache_dir = dir + "/cache";
  options.report_path = dir + "/report.json";
  return options;
}

/// Runs the smoke suite in a forked child and returns its wait status. The
/// child exits 0 on success, 1 on a failed run, and 5 when `min_reused`
/// is set and fewer slices than that were reused.
int RunSmokeInChild(const SuiteOptions& options, size_t min_reused) {
  pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    SuiteScheduler scheduler(options);
    Status status =
        scheduler.RunSuite(PaperSuite(), SuiteFilter::Parse("smoke"));
    if (!status.ok()) {
      std::fprintf(stderr, "suite run failed: %s\n",
                   status.ToString().c_str());
      _exit(1);
    }
    if (scheduler.AggregateDiagnostics().slices_reused < min_reused) {
      _exit(5);
    }
    _exit(0);
  }
  int wstatus = 0;
  if (waitpid(pid, &wstatus, 0) != pid) return -1;
  return wstatus;
}

std::map<std::string, std::string> ReadCacheFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    files[entry.path().filename().string()] =
        ReadFileToString(entry.path().string()).ValueOrDie();
  }
  return files;
}

TEST(SuiteSoak, KilledRunResumesToByteIdenticalReportAndCache) {
  // Unfaulted baseline in its own directory.
  const std::string baseline_dir = FreshDir("baseline");
  const SuiteOptions baseline = SoakOptions(baseline_dir);
  int wstatus = RunSmokeInChild(baseline, 0);
  ASSERT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)
      << "baseline run failed: status " << wstatus;

  // The victim: sequential for a deterministic fault draw order,
  // cache-write faults armed, SIGKILLing itself right after the first
  // slice record that reached the disk.
  const std::string dir = FreshDir("soak");
  const SuiteOptions soak = SoakOptions(dir);
  pid_t victim = fork();
  ASSERT_GE(victim, 0);
  if (victim == 0) {
    if (!FaultInjector::Global().Configure("cache_write:0.25", 11).ok()) {
      _exit(2);
    }
    SuiteOptions options = soak;
    options.threads = 1;
    SuiteScheduler scheduler(options);
    scheduler.set_cell_checkpoint_hook([] { raise(SIGKILL); });
    Status status =
        scheduler.RunSuite(PaperSuite(), SuiteFilter::Parse("smoke"));
    // Reaching here means the hook never fired: fail loudly instead of
    // masquerading as a crash.
    _exit(status.ok() ? 3 : 4);
  }
  ASSERT_EQ(waitpid(victim, &wstatus, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "victim exited instead of dying at its checkpoint: status "
      << wstatus;
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  // The kill fired after a durable slice write, before any cell finished:
  // the repeat the rerun must reuse is on disk, and no report exists yet.
  size_t slices = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(soak.cache_dir)) {
    if (entry.path().filename().string().rfind("slice:", 0) == 0) ++slices;
  }
  EXPECT_GE(slices, 1u) << "victim left no slice to reuse";
  EXPECT_FALSE(std::filesystem::exists(soak.report_path));

  // A plain, unfaulted rerun over the same cache must reuse at least one
  // of the victim's slices rather than recompute it.
  wstatus = RunSmokeInChild(soak, 1);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0) << "rerun failed (5: no slice reused)";

  // Crash-safety payoff: the report and every cache file — cell, slice
  // and class records — match the unfaulted baseline's exact bytes, and
  // nothing was quarantined.
  Result<std::string> report = ReadFileToString(soak.report_path);
  Result<std::string> baseline_report =
      ReadFileToString(baseline.report_path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(baseline_report.ok()) << baseline_report.status().ToString();
  EXPECT_EQ(*report, *baseline_report);

  std::map<std::string, std::string> baseline_files =
      ReadCacheFiles(baseline.cache_dir);
  std::map<std::string, std::string> soak_files =
      ReadCacheFiles(soak.cache_dir);
  ASSERT_EQ(baseline_files.size(), 15u);  // 3 cells, 9 slices, 3 classes
  ASSERT_EQ(soak_files.size(), baseline_files.size());
  for (const auto& [name, bytes] : baseline_files) {
    ASSERT_TRUE(soak_files.count(name)) << name;
    EXPECT_EQ(soak_files.at(name), bytes)
        << name << " differs from the unfaulted baseline";
  }
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".corrupt"),
              std::string::npos)
        << "quarantined file after soak: " << entry.path();
  }
}

}  // namespace
}  // namespace sched
}  // namespace fairclean
