#include "exec/study_driver.h"

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/random.h"
#include "common/safe_io.h"
#include "datasets/generator.h"

namespace fairclean {
namespace exec {
namespace {

StudyOptions SmallStudy() {
  StudyOptions options;
  options.sample_size = 300;
  options.num_repeats = 3;
  options.cv_folds = 3;
  options.seed = 99;
  return options;
}

const GeneratedDataset& German() {
  static const GeneratedDataset* dataset = [] {
    Rng rng(7);
    return new GeneratedDataset(
        MakeDataset("german", 500, &rng).ValueOrDie());
  }();
  return *dataset;
}

// Fault-free, cache-free reference result every robustness scenario must
// reproduce exactly.
const CleaningExperimentResult& Baseline() {
  static const CleaningExperimentResult* result = [] {
    StudyDriverOptions options;
    options.study = SmallStudy();
    options.cache_dir = "";
    StudyDriver driver(options);
    return new CleaningExperimentResult(
        driver.RunOrLoad(German(), "missing_values", "log-reg")
            .ValueOrDie());
  }();
  return *result;
}

void ExpectSameScores(const CleaningExperimentResult& actual,
                      const CleaningExperimentResult& expected) {
  ASSERT_EQ(actual.dirty.accuracy.size(), expected.dirty.accuracy.size());
  for (size_t i = 0; i < expected.dirty.accuracy.size(); ++i) {
    EXPECT_DOUBLE_EQ(actual.dirty.accuracy[i], expected.dirty.accuracy[i]);
  }
  ASSERT_EQ(actual.repaired.size(), expected.repaired.size());
  for (const auto& [method, series] : expected.repaired) {
    ASSERT_TRUE(actual.repaired.count(method)) << method;
    const ScoreSeries& other = actual.repaired.at(method);
    ASSERT_EQ(other.accuracy.size(), series.accuracy.size()) << method;
    for (size_t i = 0; i < series.accuracy.size(); ++i) {
      EXPECT_DOUBLE_EQ(other.accuracy[i], series.accuracy[i]) << method;
    }
  }
  for (const auto& [key, series] : expected.dirty.unfairness) {
    ASSERT_TRUE(actual.dirty.unfairness.count(key)) << key;
    const std::vector<double>& other = actual.dirty.unfairness.at(key);
    ASSERT_EQ(other.size(), series.size()) << key;
    for (size_t i = 0; i < series.size(); ++i) {
      EXPECT_DOUBLE_EQ(other[i], series[i]) << key;
    }
  }
}

// The file's bytes, or "" (failing the test) when it cannot be read.
std::string FileBytes(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << path;
  return bytes.ok() ? *bytes : "";
}

class StudyDriverTest : public testing::Test {
 protected:
  void SetUp() override {
    cache_dir_ = testing::TempDir() + "/study_driver_" +
                 testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(cache_dir_);
  }

  void TearDown() override {
    FaultInjector::Global().Reset();
    std::filesystem::remove_all(cache_dir_);
  }

  StudyDriverOptions Options() const {
    StudyDriverOptions options;
    options.study = SmallStudy();
    options.cache_dir = cache_dir_;
    return options;
  }

  std::string CacheFile() const {
    return StudyDriver::CachePath(Options(), "german", "missing_values",
                                  "log-reg");
  }

  std::string SliceFile(size_t slot) const {
    return cache_dir_ + "/" +
           StudyDriver::SliceKey(Options(), "german", "missing_values",
                                 "log-reg", slot);
  }

  std::string cache_dir_;
};

TEST_F(StudyDriverTest, ComputesBaselineWithoutCache) {
  StudyDriverOptions options = Options();
  options.cache_dir = "";
  StudyDriver driver(options);
  Result<CleaningExperimentResult> result =
      driver.RunOrLoad(German(), "missing_values", "log-reg");
  ASSERT_TRUE(result.ok());
  ExpectSameScores(*result, Baseline());
  EXPECT_EQ(driver.diagnostics().repeats_run, 3u);
  EXPECT_EQ(driver.diagnostics().cache_hits, 0u);
  EXPECT_EQ(driver.diagnostics().checkpoints, 0u);
}

TEST_F(StudyDriverTest, SecondRunIsServedFromCacheWithIdenticalScores) {
  {
    StudyDriver driver(Options());
    ASSERT_TRUE(
        driver.RunOrLoad(German(), "missing_values", "log-reg").ok());
    EXPECT_EQ(driver.diagnostics().cache_hits, 0u);
    // One slice record per repeat, then the cell record.
    EXPECT_EQ(driver.diagnostics().checkpoints, 3u);
    EXPECT_TRUE(std::filesystem::exists(CacheFile()));
    for (size_t slot = 0; slot < 3; ++slot) {
      EXPECT_TRUE(std::filesystem::exists(SliceFile(slot))) << slot;
    }
  }
  StudyDriver driver(Options());
  Result<CleaningExperimentResult> cached =
      driver.RunOrLoad(German(), "missing_values", "log-reg");
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(driver.diagnostics().cache_hits, 1u);
  EXPECT_EQ(driver.diagnostics().repeats_run, 0u);
  ExpectSameScores(*cached, Baseline());
}

TEST_F(StudyDriverTest, ResumesFromPartialSlicesByteIdentically) {
  {
    StudyDriver driver(Options());
    ASSERT_TRUE(
        driver.RunOrLoad(German(), "missing_values", "log-reg").ok());
  }
  std::string full_cache = FileBytes(CacheFile());
  std::string slice1 = FileBytes(SliceFile(1));

  // Leave what a run killed after repeat 0 would have left: slice 0 only.
  std::filesystem::remove(CacheFile());
  std::filesystem::remove(SliceFile(1));
  std::filesystem::remove(SliceFile(2));

  StudyDriver driver(Options());
  Result<CleaningExperimentResult> resumed =
      driver.RunOrLoad(German(), "missing_values", "log-reg");
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(driver.diagnostics().slices_reused, 1u);
  EXPECT_EQ(driver.diagnostics().repeats_run, 2u);
  EXPECT_EQ(driver.diagnostics().checkpoints, 2u);
  ExpectSameScores(*resumed, Baseline());

  // The rewritten cell record and slices are byte-identical to the
  // uninterrupted run's.
  EXPECT_EQ(FileBytes(CacheFile()), full_cache);
  EXPECT_EQ(FileBytes(SliceFile(1)), slice1);
}

TEST_F(StudyDriverTest, EscalatingRepeatsReusesSlicesOfTheSmallerRun) {
  StudyDriverOptions two = Options();
  two.study.num_repeats = 2;
  {
    StudyDriver driver(two);
    ASSERT_TRUE(
        driver.RunOrLoad(German(), "missing_values", "log-reg").ok());
    EXPECT_EQ(driver.diagnostics().repeats_run, 2u);
  }

  StudyDriverOptions four = Options();
  four.study.num_repeats = 4;
  StudyDriver driver(four);
  Result<CleaningExperimentResult> escalated =
      driver.RunOrLoad(German(), "missing_values", "log-reg");
  ASSERT_TRUE(escalated.ok());
  EXPECT_EQ(driver.diagnostics().cache_hits, 0u);
  EXPECT_EQ(driver.diagnostics().slices_reused, 2u);
  EXPECT_EQ(driver.diagnostics().repeats_run, 2u);
  EXPECT_EQ(escalated->dirty.accuracy.size(), 4u);

  // A cold four-repeat run in its own directory writes the same cell.
  StudyDriverOptions cold = four;
  cold.cache_dir = cache_dir_ + "/cold";
  StudyDriver cold_driver(cold);
  Result<CleaningExperimentResult> fresh =
      cold_driver.RunOrLoad(German(), "missing_values", "log-reg");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(cold_driver.diagnostics().repeats_run, 4u);
  ExpectSameScores(*escalated, *fresh);
  EXPECT_EQ(FileBytes(StudyDriver::CachePath(
                four, "german", "missing_values", "log-reg")),
            FileBytes(StudyDriver::CachePath(
                cold, "german", "missing_values", "log-reg")));
}

TEST_F(StudyDriverTest, DamagedSliceIsQuarantinedAndOnlyItsSlotRecomputes) {
  {
    StudyDriver driver(Options());
    ASSERT_TRUE(
        driver.RunOrLoad(German(), "missing_values", "log-reg").ok());
  }
  std::string full_cache = FileBytes(CacheFile());
  std::string slice1 = FileBytes(SliceFile(1));
  std::string flipped = slice1;
  flipped[flipped.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(SliceFile(1), flipped).ok());
  std::filesystem::remove(CacheFile());

  StudyDriver driver(Options());
  Result<CleaningExperimentResult> result =
      driver.RunOrLoad(German(), "missing_values", "log-reg");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(driver.diagnostics().corrupt_quarantined, 1u);
  EXPECT_EQ(driver.diagnostics().slices_reused, 2u);
  EXPECT_EQ(driver.diagnostics().repeats_run, 1u);
  ExpectSameScores(*result, Baseline());
  // The damaged bytes are kept as evidence; the slot's slice and the cell
  // record come back byte-identical.
  EXPECT_EQ(FileBytes(SliceFile(1) + ".corrupt"), flipped);
  EXPECT_EQ(FileBytes(SliceFile(1)), slice1);
  EXPECT_EQ(FileBytes(CacheFile()), full_cache);
}

TEST_F(StudyDriverTest, QuarantinesBitFlippedCacheAndRecomputes) {
  {
    StudyDriver driver(Options());
    ASSERT_TRUE(
        driver.RunOrLoad(German(), "missing_values", "log-reg").ok());
  }
  std::string full_cache = FileBytes(CacheFile());
  std::string content = full_cache;
  content[content.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(CacheFile(), content).ok());

  StudyDriver driver(Options());
  Result<CleaningExperimentResult> result =
      driver.RunOrLoad(German(), "missing_values", "log-reg");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(driver.diagnostics().corrupt_quarantined, 1u);
  EXPECT_EQ(driver.diagnostics().cache_hits, 0u);
  // The cell is reassembled from its intact slices, not recomputed.
  EXPECT_EQ(driver.diagnostics().slices_reused, 3u);
  EXPECT_EQ(driver.diagnostics().repeats_run, 0u);
  ExpectSameScores(*result, Baseline());
  // Evidence preserved, fresh cache byte-identical to the original.
  EXPECT_TRUE(std::filesystem::exists(CacheFile() + ".corrupt"));
  EXPECT_EQ(FileBytes(CacheFile()), full_cache);
}

TEST_F(StudyDriverTest, TruncatedCacheIsRejectedNotReused) {
  {
    StudyDriver driver(Options());
    ASSERT_TRUE(
        driver.RunOrLoad(German(), "missing_values", "log-reg").ok());
  }
  std::string content = FileBytes(CacheFile());
  ASSERT_TRUE(
      WriteFileAtomic(CacheFile(), content.substr(0, content.size() / 2))
          .ok());

  StudyDriver driver(Options());
  Result<CleaningExperimentResult> result =
      driver.RunOrLoad(German(), "missing_values", "log-reg");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(driver.diagnostics().corrupt_quarantined, 1u);
  ExpectSameScores(*result, Baseline());
}

TEST_F(StudyDriverTest, InjectedInterruptIsResumable) {
  ASSERT_TRUE(FaultInjector::Global().Configure("interrupt:1:1", 1).ok());
  StudyDriver driver(Options());
  Result<CleaningExperimentResult> first =
      driver.RunOrLoad(German(), "missing_values", "log-reg");
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kIoError);

  // The fault was a one-shot "kill": the re-run completes and matches the
  // fault-free scores exactly.
  Result<CleaningExperimentResult> second =
      driver.RunOrLoad(German(), "missing_values", "log-reg");
  ASSERT_TRUE(second.ok());
  ExpectSameScores(*second, Baseline());
}

TEST_F(StudyDriverTest, RetryRecoversTransientNumericFault) {
  ASSERT_TRUE(FaultInjector::Global().Configure("numeric:1:1", 1).ok());
  StudyDriver driver(Options());
  Result<CleaningExperimentResult> result =
      driver.RunOrLoad(German(), "missing_values", "log-reg");
  ASSERT_TRUE(result.ok());
  // Exactly one repeat was corrupted, retried with the identical seed, and
  // recovered — the final scores match the fault-free run bit for bit.
  EXPECT_EQ(driver.diagnostics().retries, 1u);
  EXPECT_EQ(driver.diagnostics().skips, 0u);
  ExpectSameScores(*result, Baseline());
}

TEST_F(StudyDriverTest, PersistentDegeneracySkipsAndFails) {
  ASSERT_TRUE(FaultInjector::Global().Configure("numeric:1", 1).ok());
  StudyDriverOptions options = Options();
  options.cache_dir = "";
  options.max_retries = 0;
  StudyDriver driver(options);
  Result<CleaningExperimentResult> result =
      driver.RunOrLoad(German(), "missing_values", "log-reg");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(driver.diagnostics().skips, 3u);
}

TEST_F(StudyDriverTest, TimeBudgetStopsCleanlyWithDeadlineExceeded) {
  StudyDriverOptions options = Options();
  options.time_budget_s = 1e-9;
  StudyDriver driver(options);
  Result<CleaningExperimentResult> result =
      driver.RunOrLoad(German(), "missing_values", "log-reg");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(driver.diagnostics().budget_exhausted);
}

TEST_F(StudyDriverTest, InterruptLeavesReusableSlices) {
  // Find a seed whose "interrupt" site draws false, false, true: the run
  // dies exactly before repeat 2, leaving slices 0 and 1.
  uint64_t seed = 0;
  for (uint64_t candidate = 1; candidate <= 200 && seed == 0; ++candidate) {
    ASSERT_TRUE(
        FaultInjector::Global().Configure("interrupt:0.5", candidate).ok());
    bool r0 = FaultInjector::Global().ShouldFire("interrupt");
    bool r1 = FaultInjector::Global().ShouldFire("interrupt");
    bool r2 = FaultInjector::Global().ShouldFire("interrupt");
    if (!r0 && !r1 && r2) seed = candidate;
  }
  ASSERT_NE(seed, 0u);

  ASSERT_TRUE(FaultInjector::Global().Configure("interrupt:0.5", seed).ok());
  {
    StudyDriver driver(Options());
    Result<CleaningExperimentResult> killed =
        driver.RunOrLoad(German(), "missing_values", "log-reg");
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kIoError);
    EXPECT_EQ(driver.diagnostics().checkpoints, 2u);
  }
  EXPECT_TRUE(std::filesystem::exists(SliceFile(0)));
  EXPECT_TRUE(std::filesystem::exists(SliceFile(1)));
  EXPECT_FALSE(std::filesystem::exists(SliceFile(2)));
  EXPECT_FALSE(std::filesystem::exists(CacheFile()));

  // A fault-free rerun computes only repeat 2 and converges to the bytes
  // of an uninterrupted run in its own directory.
  FaultInjector::Global().Reset();
  StudyDriver driver(Options());
  Result<CleaningExperimentResult> resumed =
      driver.RunOrLoad(German(), "missing_values", "log-reg");
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(driver.diagnostics().slices_reused, 2u);
  EXPECT_EQ(driver.diagnostics().repeats_run, 1u);
  ExpectSameScores(*resumed, Baseline());

  StudyDriverOptions clean = Options();
  clean.cache_dir = cache_dir_ + "/clean";
  StudyDriver clean_driver(clean);
  ASSERT_TRUE(
      clean_driver.RunOrLoad(German(), "missing_values", "log-reg").ok());
  EXPECT_EQ(FileBytes(CacheFile()),
            FileBytes(StudyDriver::CachePath(
                clean, "german", "missing_values", "log-reg")));
  for (size_t slot = 0; slot < 3; ++slot) {
    EXPECT_EQ(FileBytes(SliceFile(slot)),
              FileBytes(
                  clean.cache_dir + "/" +
                  StudyDriver::SliceKey(clean, "german", "missing_values",
                                        "log-reg", slot)))
        << slot;
  }
}

TEST_F(StudyDriverTest, DegenerateCachedGapsAreRecomputedNotServed) {
  {
    StudyDriver driver(Options());
    ASSERT_TRUE(
        driver.RunOrLoad(German(), "missing_values", "log-reg").ok());
  }
  // Rewrite the cache the way a pre-NaN-semantics run could have left it:
  // a privileged group with no negative labels (fp + tn == 0), whose FPR
  // gap now reconstructs to NaN.
  ResultStore store = ResultStore::LoadFromFile(CacheFile()).ValueOrDie();
  size_t zeroed = 0;
  for (const std::string& key : store.KeysWithPrefix("german")) {
    if (key.find("_priv__") == std::string::npos) continue;
    if (key.size() >= 4 && (key.compare(key.size() - 4, 4, "__fp") == 0 ||
                            key.compare(key.size() - 4, 4, "__tn") == 0)) {
      store.Put(key, 0.0);
      ++zeroed;
    }
  }
  ASSERT_GT(zeroed, 0u);
  ASSERT_TRUE(store.SaveToFile(CacheFile()).ok());
  // Slices from that era carry the same zeroed counts: rewrite each
  // slot's keys (with a valid footer) so none of them is reusable either.
  for (size_t slot = 0; slot < 3; ++slot) {
    ResultStore slice =
        ResultStore::FromJson(
            *VerifyChecksumFooter(FileBytes(SliceFile(slot))))
            .ValueOrDie();
    for (const std::string& key : slice.KeysWithPrefix("german")) {
      slice.Put(key, store.Get(key).ValueOrDie());
    }
    ASSERT_TRUE(WriteFileAtomic(SliceFile(slot),
                                AppendChecksumFooter(slice.ToJson()))
                    .ok());
  }

  StudyDriver driver(Options());
  Result<CleaningExperimentResult> result =
      driver.RunOrLoad(German(), "missing_values", "log-reg");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(driver.diagnostics().cache_hits, 0u);
  EXPECT_EQ(driver.diagnostics().corrupt_quarantined, 3u);
  EXPECT_EQ(driver.diagnostics().slices_reused, 0u);
  EXPECT_EQ(driver.diagnostics().repeats_run, 3u);
  ExpectSameScores(*result, Baseline());
}

TEST_F(StudyDriverTest, CachePathEncodesStudyShape) {
  StudyDriverOptions options = Options();
  options.cache_dir = "cache";
  EXPECT_EQ(
      StudyDriver::CachePath(options, "german", "missing_values", "log-reg"),
      "cache/german_missing_values_log-reg_s99_n300_r3_f3.json");
  // Slice keys leave out the repeat count.
  EXPECT_EQ(StudyDriver::SliceKey(options, "german", "missing_values",
                                  "log-reg", 7),
            "slice:v1:german_missing_values_log-reg_s99_n300_f3_slot7");
}

TEST_F(StudyDriverTest, DiagnosticsFormatMentionsCounters) {
  StudyDriver driver(Options());
  ASSERT_TRUE(
      driver.RunOrLoad(German(), "missing_values", "log-reg").ok());
  std::string formatted = driver.diagnostics().Format();
  EXPECT_NE(formatted.find("experiments=1"), std::string::npos);
  EXPECT_NE(formatted.find("repeats_run=3"), std::string::npos);
  EXPECT_NE(formatted.find("checkpoints=3"), std::string::npos);
  EXPECT_NE(formatted.find("slices_reused=0"), std::string::npos);
}

}  // namespace
}  // namespace exec
}  // namespace fairclean
