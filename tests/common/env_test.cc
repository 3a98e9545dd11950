#include "common/env.h"

#include <cstdlib>

#include <gtest/gtest.h>

namespace fairclean {
namespace {

TEST(EnvTest, UnsetReturnsDefault) {
  unsetenv("FAIRCLEAN_TEST_KNOB");
  EXPECT_EQ(GetEnvString("FAIRCLEAN_TEST_KNOB", "dflt"), "dflt");
  EXPECT_EQ(GetEnvCount("FAIRCLEAN_TEST_KNOB", 42).ValueOrDie(), 42);
  EXPECT_DOUBLE_EQ(GetEnvBudgetSeconds("FAIRCLEAN_TEST_KNOB", 9.0).ValueOrDie(),
                   9.0);
}

TEST(EnvTest, ReadsString) {
  setenv("FAIRCLEAN_TEST_KNOB", "value", 1);
  EXPECT_EQ(GetEnvString("FAIRCLEAN_TEST_KNOB", "dflt"), "value");
  unsetenv("FAIRCLEAN_TEST_KNOB");
}

// The strict parsers (GetEnvCount / GetEnvBudgetSeconds) back every
// numeric knob: a silent fallback would run a whole suite at an unintended
// scale, so they error instead of defaulting.

TEST(EnvTest, CountParsesAndDefaults) {
  unsetenv("FAIRCLEAN_TEST_KNOB");
  EXPECT_EQ(GetEnvCount("FAIRCLEAN_TEST_KNOB", 42).ValueOrDie(), 42);
  setenv("FAIRCLEAN_TEST_KNOB", "", 1);
  EXPECT_EQ(GetEnvCount("FAIRCLEAN_TEST_KNOB", 42).ValueOrDie(), 42);
  setenv("FAIRCLEAN_TEST_KNOB", "123", 1);
  EXPECT_EQ(GetEnvCount("FAIRCLEAN_TEST_KNOB", 42).ValueOrDie(), 123);
  setenv("FAIRCLEAN_TEST_KNOB", "0", 1);
  EXPECT_EQ(GetEnvCount("FAIRCLEAN_TEST_KNOB", 42).ValueOrDie(), 0);
  unsetenv("FAIRCLEAN_TEST_KNOB");
}

TEST(EnvTest, CountRejectsTrailingGarbage) {
  setenv("FAIRCLEAN_TEST_KNOB", "12abc", 1);
  Result<int64_t> value = GetEnvCount("FAIRCLEAN_TEST_KNOB", 42);
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(value.status().message(),
            "FAIRCLEAN_TEST_KNOB must be a non-negative integer, "
            "got \"12abc\"");
  unsetenv("FAIRCLEAN_TEST_KNOB");
}

TEST(EnvTest, CountRejectsNegative) {
  setenv("FAIRCLEAN_TEST_KNOB", "-7", 1);
  Result<int64_t> value = GetEnvCount("FAIRCLEAN_TEST_KNOB", 42);
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().message(),
            "FAIRCLEAN_TEST_KNOB must be non-negative, got \"-7\"");
  unsetenv("FAIRCLEAN_TEST_KNOB");
}

TEST(EnvTest, BudgetParsesAndDefaults) {
  unsetenv("FAIRCLEAN_TEST_KNOB");
  EXPECT_DOUBLE_EQ(
      GetEnvBudgetSeconds("FAIRCLEAN_TEST_KNOB", 9.0).ValueOrDie(), 9.0);
  setenv("FAIRCLEAN_TEST_KNOB", "3.5", 1);
  EXPECT_DOUBLE_EQ(
      GetEnvBudgetSeconds("FAIRCLEAN_TEST_KNOB", 9.0).ValueOrDie(), 3.5);
  setenv("FAIRCLEAN_TEST_KNOB", "0", 1);
  EXPECT_DOUBLE_EQ(
      GetEnvBudgetSeconds("FAIRCLEAN_TEST_KNOB", 9.0).ValueOrDie(), 0.0);
  unsetenv("FAIRCLEAN_TEST_KNOB");
}

TEST(EnvTest, BudgetRejectsGarbageNonFiniteAndNegative) {
  setenv("FAIRCLEAN_TEST_KNOB", "3.5x", 1);
  Result<double> garbage = GetEnvBudgetSeconds("FAIRCLEAN_TEST_KNOB", 9.0);
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().message(),
            "FAIRCLEAN_TEST_KNOB must be a number of seconds, "
            "got \"3.5x\"");

  setenv("FAIRCLEAN_TEST_KNOB", "inf", 1);
  Result<double> inf = GetEnvBudgetSeconds("FAIRCLEAN_TEST_KNOB", 9.0);
  ASSERT_FALSE(inf.ok());
  EXPECT_EQ(inf.status().message(),
            "FAIRCLEAN_TEST_KNOB must be finite, got \"inf\"");

  setenv("FAIRCLEAN_TEST_KNOB", "nan", 1);
  EXPECT_FALSE(GetEnvBudgetSeconds("FAIRCLEAN_TEST_KNOB", 9.0).ok());

  setenv("FAIRCLEAN_TEST_KNOB", "-1.5", 1);
  Result<double> negative = GetEnvBudgetSeconds("FAIRCLEAN_TEST_KNOB", 9.0);
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().message(),
            "FAIRCLEAN_TEST_KNOB must be non-negative, got \"-1.5\"");
  unsetenv("FAIRCLEAN_TEST_KNOB");
}

}  // namespace
}  // namespace fairclean
