#include "core/results.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/safe_io.h"

namespace fairclean {
namespace {

TEST(ResultStoreTest, PutGetContains) {
  ResultStore store;
  EXPECT_FALSE(store.Contains("a"));
  store.Put("a", 1.5);
  EXPECT_TRUE(store.Contains("a"));
  Result<double> value = store.Get("a");
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, 1.5);
  EXPECT_FALSE(store.Get("missing").ok());
  EXPECT_EQ(store.size(), 1u);
}

TEST(ResultStoreTest, PutOverwrites) {
  ResultStore store;
  store.Put("a", 1.0);
  store.Put("a", 2.0);
  EXPECT_DOUBLE_EQ(*store.Get("a"), 2.0);
  EXPECT_EQ(store.size(), 1u);
}

TEST(ResultStoreTest, KeysWithPrefixSorted) {
  ResultStore store;
  store.Put("b/x", 1.0);
  store.Put("a/z", 2.0);
  store.Put("a/y", 3.0);
  store.Put("ab", 4.0);
  std::vector<std::string> keys = store.KeysWithPrefix("a/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a/y");
  EXPECT_EQ(keys[1], "a/z");
}

TEST(ResultStoreTest, JsonRoundTrip) {
  ResultStore store;
  store.Put("german/missing_values/impute_mean_dummy/logreg/test_acc",
            0.7133333333333334);
  store.Put("german/v1/sex_priv__fp", 22.0);
  store.Put("negative", -1.25e-8);
  std::string json = store.ToJson();
  Result<ResultStore> parsed = ResultStore::FromJson(json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 3u);
  EXPECT_DOUBLE_EQ(
      *parsed->Get("german/missing_values/impute_mean_dummy/logreg/test_acc"),
      0.7133333333333334);
  EXPECT_DOUBLE_EQ(*parsed->Get("negative"), -1.25e-8);
}

TEST(ResultStoreTest, JsonKeysAreSorted) {
  // The stable key ordering is the defence against the CleanML
  // key-reshuffling reproducibility bug the paper reports.
  ResultStore store;
  store.Put("zebra", 1.0);
  store.Put("alpha", 2.0);
  std::string json = store.ToJson();
  EXPECT_LT(json.find("alpha"), json.find("zebra"));
}

TEST(ResultStoreTest, JsonEscapesSpecialCharacters) {
  ResultStore store;
  store.Put("key\"with\\quotes", 1.0);
  Result<ResultStore> parsed = ResultStore::FromJson(store.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Contains("key\"with\\quotes"));
}

TEST(ResultStoreTest, NanSerializesAsNull) {
  ResultStore store;
  store.Put("nan_key", std::nan(""));
  std::string json = store.ToJson();
  EXPECT_NE(json.find("null"), std::string::npos);
  Result<ResultStore> parsed = ResultStore::FromJson(json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(std::isnan(*parsed->Get("nan_key")));
}

TEST(ResultStoreTest, FromJsonRejectsGarbage) {
  EXPECT_FALSE(ResultStore::FromJson("not json").ok());
  EXPECT_FALSE(ResultStore::FromJson("{\"a\": }").ok());
  EXPECT_FALSE(ResultStore::FromJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ResultStore::FromJson("{\"unterminated").ok());
}

TEST(ResultStoreTest, FromJsonRejectsTrailingBytes) {
  EXPECT_TRUE(ResultStore::FromJson("{\"a\": 1}\n \t\r\n").ok());
  EXPECT_FALSE(ResultStore::FromJson("{\"a\": 1}\nx").ok());
  EXPECT_FALSE(ResultStore::FromJson("{\"a\": 1}{\"a\": 2}").ok());
  EXPECT_FALSE(ResultStore::FromJson("{\"a\": 1},").ok());
}

TEST(ResultStoreTest, CorruptedRecordWithBytesAfterItsFooterIsRejected) {
  ResultStore store;
  store.Put("cell/r0__test_acc", 0.75);
  store.Put("cell/r0__test_f1", 0.5);
  std::string framed = AppendChecksumFooter(store.ToJson());
  ASSERT_TRUE(ResultStore::LoadFromString(framed, "cell").ok());
  // One value bit-flipped (0.75 -> 0.65) and one byte after the footer.
  std::string damaged = framed;
  size_t digit = damaged.find("0.75");
  ASSERT_NE(digit, std::string::npos);
  damaged[digit + 2] ^= 0x01;
  damaged += "\n";
  Result<ResultStore> loaded = ResultStore::LoadFromString(damaged, "cell");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  // Intact bytes followed by a stray byte are rejected just the same.
  EXPECT_FALSE(ResultStore::LoadFromString(framed + "\n", "cell").ok());
  // A record must carry its footer: the bare body, a record cut off
  // exactly before the footer line, is rejected too.
  Result<ResultStore> bare =
      ResultStore::LoadFromString(store.ToJson(), "cell");
  ASSERT_FALSE(bare.ok());
  EXPECT_EQ(bare.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultStoreTest, EmptyStoreRoundTrips) {
  ResultStore store;
  Result<ResultStore> parsed = ResultStore::FromJson(store.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 0u);
}

TEST(ResultStoreTest, MergeFromOtherWins) {
  ResultStore a;
  a.Put("x", 1.0);
  a.Put("y", 1.0);
  ResultStore b;
  b.Put("y", 2.0);
  b.Put("z", 3.0);
  a.MergeFrom(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(*a.Get("y"), 2.0);
}

TEST(MetricKeyTest, JoinsWithDoubleUnderscore) {
  EXPECT_EQ(MetricKey({"impute_mean_dummy", "sex_priv", "fp"}),
            "impute_mean_dummy__sex_priv__fp");
  EXPECT_EQ(MetricKey({"a", "", "b"}), "a__b");
  EXPECT_EQ(MetricKey({}), "");
}

}  // namespace
}  // namespace fairclean
