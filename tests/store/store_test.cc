// Artifact-store tests (DESIGN.md §11): the flat one-file-per-key store's
// semantics, its "cache_write" fault probe, and unique quarantine names.

#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/safe_io.h"
#include "store/blob_store.h"

namespace fairclean {
namespace store {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/store_test_" +
                    std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(BlobStoreTest, WriteReadRemoveContainsSemantics) {
  std::string dir = FreshDir("blob");
  FlatFileStore store(dir);

  std::string bytes = AppendChecksumFooter("{\"records\": []}\n");
  ASSERT_TRUE(store.Write("cell.json", bytes).ok());
  EXPECT_EQ(*store.Read("cell.json"), bytes);
  EXPECT_TRUE(*store.Contains("cell.json"));
  EXPECT_EQ(store.Read("ghost.json").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(*store.Contains("ghost.json"));
  ASSERT_TRUE(store.Remove("cell.json").ok());
  EXPECT_TRUE(store.Remove("cell.json").ok());  // idempotent
  EXPECT_FALSE(*store.Contains("cell.json"));
  EXPECT_EQ(store.Describe("cell.json"), dir + "/cell.json");
}

TEST(BlobStoreTest, WriteProbesCacheWriteSite) {
  FlatFileStore store(FreshDir("blob_fault"));
  ASSERT_TRUE(FaultInjector::Global().Configure("cache_write:1:1", 9).ok());
  Status write = store.Write("k.json", "bytes");
  FaultInjector::Global().Reset();
  EXPECT_EQ(write.code(), StatusCode::kIoError);
  EXPECT_FALSE(*store.Contains("k.json"));
  ASSERT_TRUE(store.Write("k.json", "bytes").ok());
}

TEST(BlobStoreTest, QuarantineUsesUniqueKeys) {
  std::string dir = FreshDir("blob_quar");
  FlatFileStore store(dir);
  ASSERT_TRUE(store.Write("k.json", "a").ok());
  EXPECT_EQ(*store.Quarantine("k.json"), dir + "/k.json.corrupt");
  EXPECT_FALSE(*store.Contains("k.json"));
  // A second quarantine of the same key keeps BOTH sets of evidence bytes.
  ASSERT_TRUE(store.Write("k.json", "b").ok());
  EXPECT_EQ(*store.Quarantine("k.json"), dir + "/k.json.corrupt.1");
  EXPECT_EQ(*store.Read("k.json.corrupt"), "a");
  EXPECT_EQ(*store.Read("k.json.corrupt.1"), "b");
}

}  // namespace
}  // namespace store
}  // namespace fairclean
