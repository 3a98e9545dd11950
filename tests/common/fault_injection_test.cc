#include "common/fault_injection.h"

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace fairclean {
namespace {

class FaultInjectionTest : public testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(FaultInjectionTest, DisarmedByDefault) {
  FaultInjector::Global().Reset();
  EXPECT_FALSE(FaultInjector::Global().enabled());
  EXPECT_FALSE(FaultInjector::Global().ShouldFire("cache_write"));
  EXPECT_TRUE(FaultInjector::Global().Inject("cache_write").ok());
}

TEST_F(FaultInjectionTest, ProbabilityZeroNeverFires) {
  ASSERT_TRUE(FaultInjector::Global().Configure("numeric:0", 1).ok());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(FaultInjector::Global().ShouldFire("numeric"));
  }
  EXPECT_EQ(FaultInjector::Global().fires("numeric"), 0u);
}

TEST_F(FaultInjectionTest, ProbabilityOneAlwaysFires) {
  ASSERT_TRUE(FaultInjector::Global().Configure("numeric:1", 1).ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(FaultInjector::Global().ShouldFire("numeric"));
  }
  EXPECT_EQ(FaultInjector::Global().fires("numeric"), 100u);
}

TEST_F(FaultInjectionTest, MaxFiresBoundsTransientFault) {
  ASSERT_TRUE(FaultInjector::Global().Configure("cache_write:1:2", 1).ok());
  EXPECT_TRUE(FaultInjector::Global().ShouldFire("cache_write"));
  EXPECT_TRUE(FaultInjector::Global().ShouldFire("cache_write"));
  // Exhausted: the fault becomes transient and later attempts succeed.
  EXPECT_FALSE(FaultInjector::Global().ShouldFire("cache_write"));
  EXPECT_EQ(FaultInjector::Global().fires("cache_write"), 2u);
}

TEST_F(FaultInjectionTest, SameSeedSameFiringSequence) {
  auto draw = [](uint64_t seed) {
    FaultInjector::Global().Reset();
    EXPECT_TRUE(
        FaultInjector::Global().Configure("numeric:0.5", seed).ok());
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(FaultInjector::Global().ShouldFire("numeric"));
    }
    return fired;
  };
  EXPECT_EQ(draw(7), draw(7));
  EXPECT_NE(draw(7), draw(8));
}

TEST_F(FaultInjectionTest, SitesDrawIndependently) {
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("cache_read:0.5,cache_write:0.5", 7)
                  .ok());
  // Interleaving the second site's draws must not change the first's
  // sequence.
  std::vector<bool> interleaved;
  for (int i = 0; i < 32; ++i) {
    interleaved.push_back(FaultInjector::Global().ShouldFire("cache_read"));
    FaultInjector::Global().ShouldFire("cache_write");
  }
  FaultInjector::Global().Reset();
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("cache_read:0.5,cache_write:0.5", 7)
                  .ok());
  std::vector<bool> solo;
  for (int i = 0; i < 32; ++i) {
    solo.push_back(FaultInjector::Global().ShouldFire("cache_read"));
  }
  EXPECT_EQ(interleaved, solo);
}

TEST_F(FaultInjectionTest, InjectReturnsIoError) {
  ASSERT_TRUE(FaultInjector::Global().Configure("cache_read:1", 1).ok());
  Status status = FaultInjector::Global().Inject("cache_read");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST_F(FaultInjectionTest, CorruptScoreYieldsNaN) {
  ASSERT_TRUE(FaultInjector::Global().Configure("numeric:1:1", 1).ok());
  EXPECT_TRUE(
      std::isnan(FaultInjector::Global().CorruptScore("numeric", 0.5)));
  // max_fires exhausted: value passes through untouched.
  EXPECT_EQ(FaultInjector::Global().CorruptScore("numeric", 0.5), 0.5);
}

TEST_F(FaultInjectionTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultInjector::Global().Configure("numeric", 1).ok());
  EXPECT_FALSE(FaultInjector::Global().Configure(":0.5", 1).ok());
  EXPECT_FALSE(FaultInjector::Global().Configure("numeric:abc", 1).ok());
  EXPECT_FALSE(FaultInjector::Global().Configure("numeric:1.5", 1).ok());
  EXPECT_FALSE(FaultInjector::Global().Configure("numeric:-0.1", 1).ok());
  EXPECT_FALSE(FaultInjector::Global().Configure("numeric:1:xyz", 1).ok());
}

TEST_F(FaultInjectionTest, RejectsUnknownSites) {
  // A typo'd site would arm nothing and silently turn a chaos test into a
  // false green, so Configure must fail fast and name the known sites.
  Status status = FaultInjector::Global().Configure("cache_wirte:0.5", 1);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("unknown fault site \"cache_wirte\""),
            std::string::npos);
  EXPECT_NE(status.message().find("cache_write"), std::string::npos);
  // A bad entry anywhere in the list rejects the whole spec and arms
  // nothing, including the valid entries before it.
  EXPECT_FALSE(
      FaultInjector::Global().Configure("numeric:1,bogus:0.5", 1).ok());
  EXPECT_FALSE(FaultInjector::Global().enabled());
}

TEST_F(FaultInjectionTest, KnownSitesAreTheSuiteSites) {
  EXPECT_EQ(FaultInjector::KnownSites(),
            (std::vector<std::string>{"cache_read", "cache_write",
                                      "interrupt", "numeric"}));
  for (const std::string& site : FaultInjector::KnownSites()) {
    ASSERT_TRUE(FaultInjector::Global().Configure(site + ":1", 1).ok());
    EXPECT_TRUE(FaultInjector::Global().ShouldFire(site)) << site;
  }
  // A site no production code probes is rejected, including the retired
  // CSV reader's.
  for (const char* spec : {"socket_read:1", "csv_parse:1"}) {
    Status status = FaultInjector::Global().Configure(spec, 1);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << spec;
    EXPECT_NE(status.message().find("unknown fault site"), std::string::npos)
        << spec;
  }
}

TEST_F(FaultInjectionTest, EmptySpecDisarms) {
  ASSERT_TRUE(FaultInjector::Global().Configure("numeric:1", 1).ok());
  ASSERT_TRUE(FaultInjector::Global().Configure("", 1).ok());
  EXPECT_FALSE(FaultInjector::Global().enabled());
}

TEST_F(FaultInjectionTest, ConfigureFromEnvReadsKnobs) {
  setenv("FAIRCLEAN_FAULTS", "interrupt:1", 1);
  setenv("FAIRCLEAN_FAULT_SEED", "9", 1);
  EXPECT_TRUE(FaultInjector::Global().ConfigureFromEnv().ok());
  EXPECT_TRUE(FaultInjector::Global().ShouldFire("interrupt"));

  // Each error names exactly the knob at fault.
  setenv("FAIRCLEAN_FAULTS", "interrupt:nope", 1);
  Status bad_spec = FaultInjector::Global().ConfigureFromEnv();
  EXPECT_EQ(bad_spec.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad_spec.message().rfind("FAIRCLEAN_FAULTS: ", 0), 0u)
      << bad_spec.ToString();

  // A typo'd seed is rejected, not replaced by the default 42.
  setenv("FAIRCLEAN_FAULTS", "interrupt:1", 1);
  setenv("FAIRCLEAN_FAULT_SEED", "9x", 1);
  Status bad_seed = FaultInjector::Global().ConfigureFromEnv();
  EXPECT_EQ(bad_seed.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_seed.message().find("FAIRCLEAN_FAULT_SEED"),
            std::string::npos)
      << bad_seed.ToString();
  EXPECT_EQ(bad_seed.message().find("FAIRCLEAN_FAULTS"), std::string::npos)
      << bad_seed.ToString();
  unsetenv("FAIRCLEAN_FAULTS");
  unsetenv("FAIRCLEAN_FAULT_SEED");
}

}  // namespace
}  // namespace fairclean
