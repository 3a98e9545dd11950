// Option and classification plumbing of the suite scheduler: the strict
// parse of every scale knob that TrySuiteOptionsFromEnv resolves, and the
// cell classes the report's "classifier" block counts (names, key
// namespace, fixed-order rendering).

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "common/status.h"
#include "sched/shard.h"
#include "sched/suite_runner.h"

namespace fairclean {
namespace sched {
namespace {

// A cell's class record sits next to its cache record under its own key
// prefix, so it can never be mistaken for a cell or slice record.
TEST(ShardClassTest, ClaimAndClassKeysAreNamespaced) {
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

// StudyOptionsTest: the study half of SuiteOptions (sample, repeats, folds,
// seed), which TrySuiteOptionsFromEnv is the one reader of.
TEST(StudyOptionsTest, EnvOverrides) {
  ASSERT_EQ(setenv("FAIRCLEAN_SAMPLE", "777", 1), 0);
  ASSERT_EQ(setenv("FAIRCLEAN_REPEATS", "9", 1), 0);
  Result<SuiteOptions> options = TrySuiteOptionsFromEnv();
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->study.sample_size, 777u);
  EXPECT_EQ(options->study.num_repeats, 9u);
  ASSERT_EQ(unsetenv("FAIRCLEAN_SAMPLE"), 0);
  ASSERT_EQ(unsetenv("FAIRCLEAN_REPEATS"), 0);
  Result<SuiteOptions> defaults = TrySuiteOptionsFromEnv();
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults->study.sample_size, 3500u);
  EXPECT_EQ(defaults->study.num_repeats, 16u);
}

// Each count knob parses strictly: a negative value must not wrap to a
// huge count, and a typo must not fall back to the default unnoticed.
void ExpectKnobParsesStrictly(const char* knob,
                              uint64_t (*read)(const SuiteOptions&),
                              uint64_t fallback) {
  SCOPED_TRACE(knob);
  ASSERT_EQ(setenv(knob, "5", 1), 0);
  Result<SuiteOptions> options = TrySuiteOptionsFromEnv();
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(read(*options), 5u);
  for (const char* bad : {"-1", "15k", "7x", "four", "nan", "3.5"}) {
    ASSERT_EQ(setenv(knob, bad, 1), 0);
    Result<SuiteOptions> rejected = TrySuiteOptionsFromEnv();
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(rejected.status().ToString().find(knob), std::string::npos)
        << rejected.status().ToString();
  }
  ASSERT_EQ(setenv(knob, "", 1), 0);
  options = TrySuiteOptionsFromEnv();
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(read(*options), fallback);
  ASSERT_EQ(unsetenv(knob), 0);
}

TEST(StudyOptionsTest, SampleKnobParsesStrictly) {
  ExpectKnobParsesStrictly(
      "FAIRCLEAN_SAMPLE",
      [](const SuiteOptions& o) -> uint64_t { return o.study.sample_size; },
      3500);
}

TEST(StudyOptionsTest, RepeatsKnobParsesStrictly) {
  ExpectKnobParsesStrictly(
      "FAIRCLEAN_REPEATS",
      [](const SuiteOptions& o) -> uint64_t { return o.study.num_repeats; },
      16);
}

TEST(StudyOptionsTest, FoldsKnobParsesStrictly) {
  ExpectKnobParsesStrictly(
      "FAIRCLEAN_FOLDS",
      [](const SuiteOptions& o) -> uint64_t { return o.study.cv_folds; },
      3);
}

TEST(SuiteOptionsTest, ThreadsKnobParsesStrictly) {
  ExpectKnobParsesStrictly(
      "FAIRCLEAN_THREADS",
      [](const SuiteOptions& o) -> uint64_t { return o.threads; }, 0);
}

// A mistyped seed must fail loudly: a lenient parse would run, report and
// cache the whole suite under the default seed 42.
TEST(StudyOptionsTest, SeedKnobParsesStrictly) {
  ExpectKnobParsesStrictly(
      "FAIRCLEAN_SEED",
      [](const SuiteOptions& o) -> uint64_t { return o.study.seed; }, 42);
}

}  // namespace
}  // namespace sched
}  // namespace fairclean
