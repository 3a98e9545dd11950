#include "common/exec_mode.h"

#include <cstdlib>

#include <gtest/gtest.h>

namespace fairclean {
namespace {

TEST(ExecModeTest, ParsesEveryKnownMode) {
  EXPECT_EQ(ParseExecMode("naive").ValueOrDie(), ExecMode::kNaive);
  EXPECT_EQ(ParseExecMode("shared").ValueOrDie(), ExecMode::kShared);
  EXPECT_EQ(ParseExecMode("fused").ValueOrDie(), ExecMode::kFused);
}

TEST(ExecModeTest, NamesRoundTrip) {
  for (ExecMode mode :
       {ExecMode::kNaive, ExecMode::kShared, ExecMode::kFused}) {
    EXPECT_EQ(ParseExecMode(ExecModeName(mode)).ValueOrDie(), mode);
  }
}

TEST(ExecModeTest, RejectsUnknownTokenListingKnownModes) {
  Result<ExecMode> parsed = ParseExecMode("turbo");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  // The error must name the knob and every legal token, so a typo'd
  // environment is self-explaining.
  std::string message = parsed.status().ToString();
  EXPECT_NE(message.find("FAIRCLEAN_EXEC_MODE"), std::string::npos);
  EXPECT_NE(message.find("naive"), std::string::npos);
  EXPECT_NE(message.find("shared"), std::string::npos);
  EXPECT_NE(message.find("fused"), std::string::npos);
  EXPECT_NE(message.find("turbo"), std::string::npos);
}

TEST(ExecModeTest, ParseIsStrict) {
  // Exact lowercase tokens only: no case folding, trimming, or prefixes.
  EXPECT_FALSE(ParseExecMode("Fused").ok());
  EXPECT_FALSE(ParseExecMode("FUSED").ok());
  EXPECT_FALSE(ParseExecMode(" fused").ok());
  EXPECT_FALSE(ParseExecMode("fused ").ok());
  EXPECT_FALSE(ParseExecMode("fusedx").ok());
  EXPECT_FALSE(ParseExecMode("").ok());
}

TEST(ExecModeTest, EnvDefaultsToFusedAndParsesStrictly) {
  ::unsetenv("FAIRCLEAN_EXEC_MODE");
  EXPECT_EQ(ExecModeFromEnv().ValueOrDie(), ExecMode::kFused);

  ::setenv("FAIRCLEAN_EXEC_MODE", "naive", 1);
  EXPECT_EQ(ExecModeFromEnv().ValueOrDie(), ExecMode::kNaive);

  ::setenv("FAIRCLEAN_EXEC_MODE", "warp", 1);
  Result<ExecMode> parsed = ExecModeFromEnv();
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);

  ::unsetenv("FAIRCLEAN_EXEC_MODE");
}

}  // namespace
}  // namespace fairclean
