// Kill -9 work-stealing soak for the claim shard layer (DESIGN.md Section
// 16): a claiming shard process — with write faults armed — SIGKILLs
// itself at its first successful journal checkpoint, mid-cell, holding
// every claim of the wave. A survivor shard started afterwards must see
// the dead owner's claims as stealable, steal them, resume the victim's
// partial repeats from its journal, auto-merge, and converge to the exact
// bytes of an unfaulted single-process run — with the stolen cells
// classified "stolen" in the merged report and zero quarantined files.
//
// All suite runs happen in forked children (threads never survive fork;
// see shard_golden_test.cc), and the victim's crash point is the
// scheduler's cell checkpoint hook — deterministic, because the hook only
// fires after a journal record is durably on disk.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/safe_io.h"
#include "sched/lease.h"
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
  std::string dir = testing::TempDir() + "/shard_soak_" +
                    std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

SuiteOptions SoakOptions(const std::string& cache_dir,
                         const std::string& report_path) {
  SuiteOptions options;
  options.study = GoldenStudy();
  options.cache_dir = cache_dir;
  options.report_path = report_path;
  return options;
}

std::map<std::string, std::string> ReadCacheRecords(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("class:", 0) == 0) continue;  // classes diverge: stolen
    files[name] = ReadFileToString(entry.path().string()).ValueOrDie();
  }
  return files;
}

TEST(ShardSoak, KilledClaimShardIsStolenResumedAndByteIdentical) {
  // Unfaulted single-process baseline in its own cache dir.
  std::string baseline_dir = FreshDir("baseline");
  std::string baseline_report = baseline_dir + "/report.json";
  pid_t baseline_pid = fork();
  ASSERT_GE(baseline_pid, 0);
  if (baseline_pid == 0) {
    SuiteScheduler scheduler(
        SoakOptions(baseline_dir + "/cache", baseline_report));
    Status status =
        scheduler.RunSuite(PaperSuite(), SuiteFilter::Parse("smoke"));
    _exit(status.ok() ? 0 : 1);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(baseline_pid, &wstatus, 0), baseline_pid);
  ASSERT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)
      << "baseline run failed";

  std::string dir = FreshDir("soak");
  std::string cache = dir + "/cache";
  std::string report = dir + "/report.json";

  // The victim: claim shard 1/2, sequential for a deterministic fault
  // draw order, cache-write faults armed, SIGKILLing itself at the first
  // successful journal checkpoint. At width 1 the guided claim chunk is
  // one cell, so the victim dies holding exactly the first wave cell's
  // claim, with one repeat of it durably journaled.
  pid_t victim = fork();
  ASSERT_GE(victim, 0);
  if (victim == 0) {
    if (!FaultInjector::Global().Configure("cache_write:0.25", 11).ok()) {
      _exit(2);
    }
    SuiteOptions options = SoakOptions(cache, report);
    options.threads = 1;
    options.shard.mode = ShardMode::kClaim;
    options.shard.index = 0;
    options.shard.count = 2;
    SuiteScheduler scheduler(options);
    scheduler.set_cell_checkpoint_hook(
        [](const CellKey&) { raise(SIGKILL); });
    Status status =
        scheduler.RunSuiteShard(PaperSuite(), SuiteFilter::Parse("smoke"));
    // Reaching here means the hook never fired: fail loudly instead of
    // masquerading as a crash.
    _exit(status.ok() ? 3 : 4);
  }
  ASSERT_EQ(waitpid(victim, &wstatus, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "victim exited instead of dying at its checkpoint: status "
      << wstatus;
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  // The victim died holding its claimed cell: that lease must read as the
  // dead pid's and classify stealable — immediately, without waiting out
  // the lease, because the owner is gone. Exactly one claim exists (the
  // guided chunk at width 1 is one cell); the rest of the wave was never
  // claimed.
  LeaseStore leases(cache + "/claims");
  SuiteSpec spec = PaperSuite();
  const SuiteUnit* smoke = nullptr;
  for (const SuiteUnit& unit : spec.units) {
    if (unit.name == "smoke") smoke = &unit;
  }
  ASSERT_NE(smoke, nullptr);
  std::vector<CellKey> cells = UnitCells(*smoke);
  ASSERT_EQ(cells.size(), 3u);
  size_t dead_claims = 0;
  for (const CellKey& cell : cells) {
    Result<LeaseRecord> record = leases.Read(ClaimKeyFor(cell));
    if (!record.ok()) continue;  // never claimed
    ++dead_claims;
    EXPECT_EQ(record->pid, static_cast<int64_t>(victim)) << cell.Id();
    EXPECT_FALSE(record->released()) << cell.Id();
    EXPECT_EQ(ClassifyClaim(*record, MonotonicSeconds(),
                            PidAlive(record->pid)),
              ClaimState::kStealable)
        << cell.Id();
  }
  EXPECT_EQ(dead_claims, 1u);

  // The kill fired after a durable journal write: the partial repeats the
  // survivor must resume are on disk.
  size_t journals = 0;
  for (const auto& entry : std::filesystem::directory_iterator(cache)) {
    if (entry.path().filename().string().find(".journal") !=
        std::string::npos) {
      ++journals;
    }
  }
  EXPECT_GE(journals, 1u) << "victim left no journal to resume";

  // The survivor: claim shard 2/2, unfaulted. It must steal the dead
  // claim, resume its journaled repeats rather than recompute them, claim
  // the untouched cells normally, and — as the only finisher — win the
  // merge election and assemble the merged report itself.
  pid_t survivor = fork();
  ASSERT_GE(survivor, 0);
  if (survivor == 0) {
    SuiteOptions options = SoakOptions(cache, report);
    options.shard.mode = ShardMode::kClaim;
    options.shard.index = 1;
    options.shard.count = 2;
    SuiteScheduler scheduler(options);
    Status status =
        scheduler.RunSuiteShard(PaperSuite(), SuiteFilter::Parse("smoke"));
    if (!status.ok()) {
      std::fprintf(stderr, "survivor failed: %s\n",
                   status.ToString().c_str());
      _exit(1);
    }
    exec::RunDiagnostics diagnostics = scheduler.AggregateDiagnostics();
    if (diagnostics.journal_resumes < 1) _exit(5);
    if (diagnostics.repeats_resumed < 1) _exit(6);
    _exit(0);
  }
  ASSERT_EQ(waitpid(survivor, &wstatus, 0), survivor);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0)
      << "survivor failed (5: no journal resume, 6: no repeats resumed)";

  // The survivor's partial report counts the steal and classifies the
  // stolen cell, and so does the merged report it assembled (the class
  // records persist the classification across the merge's cache hits).
  // The stolen cell is german/log-reg — degenerate-retry in the baseline,
  // but stolen takes precedence; the other two cells pass.
  SuiteOptions probe = SoakOptions(cache, report);
  probe.shard.mode = ShardMode::kClaim;
  probe.shard.index = 1;
  probe.shard.count = 2;
  Result<std::string> partial = ReadFileToString(
      SuiteScheduler::PartialReportPath(report, probe.shard));
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_NE(partial->find("\"steals\":1"), std::string::npos) << *partial;
  EXPECT_NE(partial->find("\"produced\":3"), std::string::npos) << *partial;
  EXPECT_NE(partial->find("\"classifier\":{\"pass\":2,"
                          "\"degenerate_retry\":0,\"skipped\":0,"
                          "\"budget_exceeded\":0,\"stolen\":1}"),
            std::string::npos)
      << *partial;

  Result<std::string> merged = ReadFileToString(report);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_NE(merged->find("\"classifier\":{\"pass\":2,"
                         "\"degenerate_retry\":0,\"skipped\":0,"
                         "\"budget_exceeded\":0,\"stolen\":1}"),
            std::string::npos)
      << *merged;

  // Crash-safety payoff: every cache record converges to the unfaulted
  // baseline's exact bytes, no file was quarantined, and no journal
  // outlives its completed cell.
  std::map<std::string, std::string> baseline_files =
      ReadCacheRecords(baseline_dir + "/cache");
  std::map<std::string, std::string> soak_files = ReadCacheRecords(cache);
  ASSERT_EQ(baseline_files.size(), 3u);
  ASSERT_EQ(soak_files.size(), baseline_files.size());
  for (const auto& [name, bytes] : baseline_files) {
    ASSERT_TRUE(soak_files.count(name)) << name;
    EXPECT_EQ(soak_files.at(name), bytes)
        << name << " differs from the unfaulted baseline";
  }
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".corrupt"), std::string::npos)
        << "quarantined file after soak: " << entry.path();
    EXPECT_EQ(name.find(".journal"), std::string::npos)
        << "stale journal after soak: " << entry.path();
  }

  // Apart from the classifier/class divergence (stolen vs pass), the
  // merged report matches the baseline: stripping both runs' class
  // annotations yields identical bytes.
  Result<std::string> baseline_bytes = ReadFileToString(baseline_report);
  ASSERT_TRUE(baseline_bytes.ok());
  auto strip_classes = [](std::string text) {
    for (const char* cls :
         {"\"stolen\"", "\"pass\"", "\"degenerate_retry\""}) {
      size_t pos;
      const std::string needle = std::string("\"class\":") + cls + ",";
      while ((pos = text.find(needle)) != std::string::npos) {
        text.erase(pos, needle.size());
      }
    }
    const std::string classifier = "\"classifier\":{";
    size_t start = text.find(classifier);
    if (start != std::string::npos) {
      size_t end = text.find('}', start);
      if (end != std::string::npos) {
        text.erase(start, end - start + 1);
      }
    }
    return text;
  };
  EXPECT_EQ(strip_classes(*merged), strip_classes(*baseline_bytes));
}

}  // namespace
}  // namespace sched
}  // namespace fairclean
