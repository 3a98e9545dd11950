// Property tests for the shard coordination layer (DESIGN.md Section 16):
// the 1-based "i/N" spec syntax, the pure steal rule (ClassifyClaim), the LeaseStore protocol itself — acquire / conflict /
// refresh / expired- and dead-owner steal / release-marker semantics,
// including a forked multi-process single-winner race — and the
// classification plumbing (names, counts, report blocks). Claims must
// never leak into the artifact plane: the lease directory is the only
// place a claim byte lives.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "sched/lease.h"
#include "sched/shard.h"
#include "sched/suite_runner.h"
#include "sched/suite_spec.h"

namespace fairclean {
namespace sched {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/shard_claim_" +
                    std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(ShardSpecTest, ParsesOneBasedSyntax) {
  Result<ShardSpec> spec = ParseShardSpec(ShardMode::kClaim, "1/4");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->mode, ShardMode::kClaim);
  EXPECT_EQ(spec->index, 0u);
  EXPECT_EQ(spec->count, 4u);
  EXPECT_TRUE(spec->active());
  EXPECT_EQ(spec->Label(), "shard-1/4");

  spec = ParseShardSpec(ShardMode::kClaim, "4/4");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->index, 3u);
  EXPECT_EQ(spec->Label(), "shard-4/4");
}

TEST(ShardSpecTest, RejectsMalformedSpecs) {
  for (const char* bad : {"", "0/4", "5/4", "1/0", "a/b", "1/4x", "1",
                          "1/", "/4", "-1/4", "1/-4", "1 / 4"}) {
    EXPECT_FALSE(ParseShardSpec(ShardMode::kClaim, bad).ok()) << bad;
  }
}

TEST(ShardSpecTest, InactiveByDefault) {
  ShardSpec spec;
  EXPECT_FALSE(spec.active());
}

// The whole steal rule as a truth table. ClassifyClaim is pure; Acquire
// merely applies it under the file lock, so this is where the protocol's
// correctness lives.
TEST(ClassifyClaimTest, StealRuleTruthTable) {
  LeaseRecord record;
  record.pid = 12345;
  record.deadline_mono_s = 100.0;
  record.generation = 3;

  // Live owner inside its lease: held.
  EXPECT_EQ(ClassifyClaim(record, 50.0, true),
            ClaimState::kHeld);
  // Live owner past its deadline (wedged): stealable.
  EXPECT_EQ(ClassifyClaim(record, 100.5, true),
            ClaimState::kStealable);
  // Dead owner, deadline irrelevant: stealable.
  EXPECT_EQ(ClassifyClaim(record, 50.0, false),
            ClaimState::kStealable);
  EXPECT_EQ(ClassifyClaim(record, 100.5, false),
            ClaimState::kStealable);
  // Released record: free, never a steal.
  record.pid = 0;
  EXPECT_EQ(ClassifyClaim(record, 50.0, false),
            ClaimState::kFree);
  EXPECT_EQ(ClassifyClaim(record, 100.5, true),
            ClaimState::kFree);
}

TEST(LeaseRecordTest, EncodeDecodeRoundTrip) {
  LeaseRecord record;
  record.pid = 4242;
  record.deadline_mono_s = 1234.56789;
  record.generation = 17;
  record.owner = "shard-2/4";
  Result<LeaseRecord> decoded =
      LeaseStore::Decode(LeaseStore::Encode(record));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->pid, record.pid);
  EXPECT_NEAR(decoded->deadline_mono_s, record.deadline_mono_s, 1e-6);
  EXPECT_EQ(decoded->generation, record.generation);
  EXPECT_EQ(decoded->owner, record.owner);
}

TEST(LeaseStoreTest, AcquireRefreshReleaseLifecycle) {
  LeaseStore store(FreshDir("lifecycle"));
  Result<LeaseToken> token = store.Acquire("cell-a", "me", 30.0);
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  EXPECT_FALSE(token->stolen);
  EXPECT_EQ(token->key, "cell-a");

  Result<LeaseRecord> record = store.Read("cell-a");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->pid, static_cast<int64_t>(::getpid()));
  EXPECT_EQ(record->owner, "me");
  EXPECT_FALSE(record->released());

  ASSERT_TRUE(store.Refresh(*token, 30.0).ok());
  ASSERT_TRUE(store.Release(*token).ok());

  // Release writes a released marker, never unlinks: the file must still
  // exist (unlink under flock reopens the orphan-inode race) and read as
  // free.
  record = store.Read("cell-a");
  ASSERT_TRUE(record.ok());
  EXPECT_TRUE(record->released());

  // A fresh acquire of the released key is not a steal.
  token = store.Acquire("cell-a", "me-again", 30.0);
  ASSERT_TRUE(token.ok());
  EXPECT_FALSE(token->stolen);
}

TEST(LeaseStoreTest, ReadOfUnknownKeyIsNotFound) {
  LeaseStore store(FreshDir("unknown"));
  Result<LeaseRecord> record = store.Read("never-acquired");
  EXPECT_FALSE(record.ok());
  EXPECT_EQ(record.status().code(), StatusCode::kNotFound);
}

TEST(LeaseStoreTest, GenerationGrowsAcrossOwnershipChanges) {
  LeaseStore store(FreshDir("generation"));
  Result<LeaseToken> first = store.Acquire("cell-g", "a", 30.0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(store.Release(*first).ok());
  Result<LeaseToken> second = store.Acquire("cell-g", "b", 30.0);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second->generation, first->generation);
}

TEST(LeaseStoreTest, HeldByLiveProcessIsUnavailableAcrossProcesses) {
  std::string dir = FreshDir("held");
  LeaseStore store(dir);
  Result<LeaseToken> mine = store.Acquire("cell-h", "parent", 60.0);
  ASSERT_TRUE(mine.ok());

  // A forked child (distinct pid) must see the parent's live lease as
  // held, not free and not stealable.
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    LeaseStore child_store(dir);
    Result<LeaseToken> theirs =
        child_store.Acquire("cell-h", "child", 60.0);
    if (theirs.ok()) _exit(10);
    _exit(theirs.status().code() == StatusCode::kUnavailable ? 0 : 11);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0)
      << "child acquire of a live held lease did not fail Unavailable";
  ASSERT_TRUE(store.Release(*mine).ok());
}

TEST(LeaseStoreTest, DeadOwnersClaimIsStolenImmediately) {
  std::string dir = FreshDir("dead");
  // A child acquires the claim and dies without releasing.
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    LeaseStore child_store(dir);
    Result<LeaseToken> token =
        child_store.Acquire("cell-d", "victim", 3600.0);
    _exit(token.ok() ? 0 : 1);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);

  LeaseStore store(dir);
  Result<LeaseRecord> record = store.Read("cell-d");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->pid, static_cast<int64_t>(pid));
  EXPECT_FALSE(PidAlive(record->pid));
  EXPECT_EQ(ClassifyClaim(*record, MonotonicSeconds(),
                          PidAlive(record->pid)),
            ClaimState::kStealable);

  // Stealing from the dead owner works immediately — no need to wait out
  // the hour-long lease — and the token says so.
  Result<LeaseToken> stolen = store.Acquire("cell-d", "thief", 30.0);
  ASSERT_TRUE(stolen.ok()) << stolen.status().ToString();
  EXPECT_TRUE(stolen->stolen);
  EXPECT_GT(stolen->generation, 1u);
}

TEST(LeaseStoreTest, ExpiredLeaseOfLiveProcessIsStolen) {
  std::string dir = FreshDir("expired");
  LeaseStore store(dir);
  // The parent holds with a microscopic lease, then a forked child (live
  // but distinct pid) steals after the deadline passes.
  Result<LeaseToken> mine = store.Acquire("cell-e", "slow", 0.01);
  ASSERT_TRUE(mine.ok());
  usleep(50 * 1000);

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    LeaseStore child_store(dir);
    Result<LeaseToken> token =
        child_store.Acquire("cell-e", "thief", 30.0);
    if (!token.ok()) _exit(1);
    _exit(token->stolen ? 0 : 2);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0)
      << "expired lease of a live owner was not stolen";

  // The original owner lost the key: Refresh must refuse, so the loser
  // knows to stop trusting its claim.
  EXPECT_FALSE(store.Refresh(*mine, 30.0).ok());
  // Releasing the stolen-away token is a harmless no-op; the thief's
  // record survives.
  EXPECT_TRUE(store.Release(*mine).ok());
  Result<LeaseRecord> record = store.Read("cell-e");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->owner, "thief");
}

// The single-winner race, with real processes: N forked children race to
// acquire one free key. Exactly one may win. The children synchronize
// through pipes so no winner can exit (and look dead) before every
// sibling has attempted its acquire.
TEST(LeaseStoreTest, ForkedRaceHasExactlyOneWinner) {
  std::string dir = FreshDir("race");
  constexpr int kChildren = 8;

  int report_pipe[2];  // children -> parent: one result byte each
  int gate_pipe[2];    // parent -> children: closed when all reported
  ASSERT_EQ(pipe(report_pipe), 0);
  ASSERT_EQ(pipe(gate_pipe), 0);

  std::vector<pid_t> pids;
  for (int i = 0; i < kChildren; ++i) {
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      close(report_pipe[0]);
      close(gate_pipe[1]);
      LeaseStore store(dir);
      Result<LeaseToken> token =
          store.Acquire("contested", "racer", 3600.0);
      char result;
      if (token.ok()) {
        result = token->stolen ? 'S' : 'W';
      } else {
        result =
            token.status().code() == StatusCode::kUnavailable ? 'L' : 'E';
      }
      (void)!write(report_pipe[1], &result, 1);
      // Stay alive (pid valid, lease held) until the parent has every
      // result: a winner that exited early would read as dead and allow a
      // legitimate second winner via the steal rule.
      char gate;
      (void)!read(gate_pipe[0], &gate, 1);
      _exit(0);
    }
    pids.push_back(pid);
  }
  close(report_pipe[1]);
  close(gate_pipe[0]);

  int winners = 0, losers = 0, steals = 0, errors = 0;
  for (int i = 0; i < kChildren; ++i) {
    char result = 0;
    ASSERT_EQ(read(report_pipe[0], &result, 1), 1);
    if (result == 'W') ++winners;
    if (result == 'L') ++losers;
    if (result == 'S') ++steals;
    if (result == 'E') ++errors;
  }
  close(gate_pipe[1]);  // open the gate: children may exit
  for (pid_t pid : pids) {
    int wstatus = 0;
    EXPECT_EQ(waitpid(pid, &wstatus, 0), pid);
  }
  close(report_pipe[0]);

  EXPECT_EQ(winners, 1);
  EXPECT_EQ(steals, 0);
  EXPECT_EQ(errors, 0);
  EXPECT_EQ(losers, kChildren - 1);
}

// Claims are coordination state, not artifacts: everything the LeaseStore
// writes lives under the claims/ subdirectory, so a top-level scan of the
// cache dir — which is exactly what the golden byte-identity comparisons
// do — sees no lease bytes, and artifact-reuse counters cannot tick for
// them.
TEST(LeaseStoreTest, ClaimFilesStayOutOfTheCacheDirTopLevel) {
  std::string cache = FreshDir("cache_plane");
  LeaseStore store(cache + "/claims");
  ASSERT_TRUE(store.Acquire(ClaimKeyFor(CellKey{"german", "missing_values",
                                                "xgboost"}),
                            "shard-1/2", 30.0)
                  .ok());
  size_t top_level_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(cache)) {
    if (entry.is_regular_file()) ++top_level_files;
  }
  EXPECT_EQ(top_level_files, 0u);
  EXPECT_FALSE(std::filesystem::is_empty(cache + "/claims"));
}

TEST(ShardClassTest, ClaimAndClassKeysAreNamespaced) {
  CellKey cell{"german", "missing_values", "xgboost"};
  EXPECT_EQ(ClaimKeyFor(cell), "claim:" + cell.Id());
  EXPECT_EQ(ClassKeyFor("german_x.json"), "class:german_x.json");
}

TEST(ShardClassTest, ClassNamesRoundTrip) {
  for (CellClass cls :
       {CellClass::kStolen, CellClass::kBudgetExceeded, CellClass::kSkipped,
        CellClass::kDegenerateRetry, CellClass::kPass}) {
    Result<CellClass> parsed = CellClassFromName(CellClassName(cls));
    ASSERT_TRUE(parsed.ok()) << CellClassName(cls);
    EXPECT_EQ(*parsed, cls);
  }
  EXPECT_FALSE(CellClassFromName("bogus").ok());
  EXPECT_FALSE(CellClassFromName("").ok());
}

TEST(ShardClassTest, ClassifierCountsRenderFixedKeyOrder) {
  ClassifierCounts counts;
  counts.Add(CellClass::kPass);
  counts.Add(CellClass::kPass);
  counts.Add(CellClass::kDegenerateRetry);
  counts.Add(CellClass::kStolen);
  EXPECT_EQ(counts.ToJson(),
            "{\"pass\":2,\"degenerate_retry\":1,\"skipped\":0,"
            "\"budget_exceeded\":0,\"stolen\":1}");
}

TEST(ShardReportTest, PartialReportPathEmbedsOneBasedIndex) {
  Result<ShardSpec> spec = ParseShardSpec(ShardMode::kClaim, "2/4");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(SuiteScheduler::PartialReportPath("out/report.json", *spec),
            "out/report.json.shard2of4");
}

TEST(ShardOptionsTest, LeaseSecondsKnobParsesStrictly) {
  ASSERT_EQ(setenv("FAIRCLEAN_SHARD_LEASE_S", "12.5", 1), 0);
  Result<SuiteOptions> options = TrySuiteOptionsFromEnv();
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_DOUBLE_EQ(options->shard_lease_s, 12.5);

  for (const char* bad : {"0", "-1", "abc", "1.5x", "nan"}) {
    ASSERT_EQ(setenv("FAIRCLEAN_SHARD_LEASE_S", bad, 1), 0);
    EXPECT_FALSE(TrySuiteOptionsFromEnv().ok()) << bad;
  }
  ASSERT_EQ(unsetenv("FAIRCLEAN_SHARD_LEASE_S"), 0);
  options = TrySuiteOptionsFromEnv();
  ASSERT_TRUE(options.ok());
  EXPECT_DOUBLE_EQ(options->shard_lease_s, 30.0);
}

}  // namespace
}  // namespace sched
}  // namespace fairclean
