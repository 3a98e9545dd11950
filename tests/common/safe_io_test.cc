#include "common/safe_io.h"

#include <filesystem>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "common/fault_injection.h"

namespace fairclean {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/safe_io_" + name;
}

TEST(Crc32Test, MatchesKnownVectors) {
  // Standard zlib/IEEE CRC-32 check values.
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414fa339u);
}

TEST(Crc32Test, SensitiveToSingleBitFlip) {
  std::string data = "{\"a\": 1}";
  uint32_t before = Crc32(data);
  data[1] ^= 0x01;
  EXPECT_NE(Crc32(data), before);
}

// Bit-at-a-time CRC-32 straight from the reflected polynomial: the
// reference the table-driven implementation must match.
uint32_t BitwiseCrc32(const unsigned char* data, size_t size) {
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  std::mt19937 rng(77);
  std::string buffer(1024 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(rng());
  const auto* bytes = reinterpret_cast<const unsigned char*>(buffer.data());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 1024; ++length) {
      ASSERT_EQ(Crc32(std::string_view(buffer.data() + offset, length)),
                BitwiseCrc32(bytes + offset, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(AtomicWriteTest, RoundTripsAndLeavesNoTempFile) {
  std::string path = TempPath("roundtrip.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "hello\nworld\n").ok());
  Result<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "hello\nworld\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(AtomicWriteTest, ReplacesExistingFile) {
  std::string path = TempPath("replace.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "new").ok());
  EXPECT_EQ(*ReadFileToString(path), "new");
  std::filesystem::remove(path);
}

TEST(AtomicWriteTest, MissingFileIsIoError) {
  Result<std::string> read = ReadFileToString(TempPath("does_not_exist"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST(ChecksumFooterTest, AppendThenVerifyReturnsBody) {
  std::string body = "{\"x\": 1, \"y\": 2}\n";
  std::string framed = AppendChecksumFooter(body);
  Result<std::string> verified = VerifyChecksumFooter(framed);
  ASSERT_TRUE(verified.ok());
  EXPECT_EQ(*verified, body);
}

TEST(ChecksumFooterTest, MissingFooterIsInvalidArgument) {
  Result<std::string> verified = VerifyChecksumFooter("{\"x\": 1}\n");
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kInvalidArgument);
}

TEST(ChecksumFooterTest, DetectsBitFlipInBody) {
  std::string framed = AppendChecksumFooter("{\"x\": 1234}\n");
  framed[6] = '5';  // 1234 -> 1534
  Result<std::string> verified = VerifyChecksumFooter(framed);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kInvalidArgument);
}

TEST(ChecksumFooterTest, DetectsTruncatedBody) {
  std::string body = "{\"x\": 1, \"y\": 2}\n";
  std::string framed = AppendChecksumFooter(body);
  // Drop one byte of the body but keep the footer intact.
  std::string truncated = framed.substr(1);
  EXPECT_FALSE(VerifyChecksumFooter(truncated).ok());
}

TEST(ChecksumFooterTest, RejectsBytesAfterTheFooter) {
  std::string framed = AppendChecksumFooter("{\"x\": 1}\n");
  ASSERT_TRUE(VerifyChecksumFooter(framed).ok());
  for (const char* tail : {"\n", " ", "x", "{\"y\": 2}\n"}) {
    Result<std::string> verified = VerifyChecksumFooter(framed + tail);
    ASSERT_FALSE(verified.ok()) << "tail \"" << tail << "\"";
    EXPECT_EQ(verified.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(QuarantineTest, MovesFileAside) {
  std::string path = TempPath("damaged.json");
  ASSERT_TRUE(WriteFileAtomic(path, "garbage").ok());
  Result<std::string> moved = QuarantineFile(path);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, path + ".corrupt");
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(*ReadFileToString(*moved), "garbage");
  std::filesystem::remove(*moved);
}

TEST(QuarantineTest, RepeatedQuarantinesKeepEveryCopy) {
  // Recompute-after-corruption can corrupt again; each quarantine must
  // pick a fresh name instead of clobbering the earlier evidence.
  std::string path = TempPath("repeat.json");
  ASSERT_TRUE(WriteFileAtomic(path, "damage one").ok());
  Result<std::string> first = QuarantineFile(path);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, path + ".corrupt");

  ASSERT_TRUE(WriteFileAtomic(path, "damage two").ok());
  Result<std::string> second = QuarantineFile(path);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, path + ".corrupt.1");

  ASSERT_TRUE(WriteFileAtomic(path, "damage three").ok());
  Result<std::string> third = QuarantineFile(path);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*third, path + ".corrupt.2");

  EXPECT_EQ(*ReadFileToString(*first), "damage one");
  EXPECT_EQ(*ReadFileToString(*second), "damage two");
  EXPECT_EQ(*ReadFileToString(*third), "damage three");
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove(*first);
  std::filesystem::remove(*second);
  std::filesystem::remove(*third);
}

TEST(QuarantineTest, MissingFileIsIoError) {
  Result<std::string> moved = QuarantineFile(TempPath("never_existed"));
  ASSERT_FALSE(moved.ok());
  EXPECT_EQ(moved.status().code(), StatusCode::kIoError);
}

TEST(SafeIoFaultTest, CacheWriteSiteFails) {
  ASSERT_TRUE(
      FaultInjector::Global().Configure("cache_write:1", 1).ok());
  std::string path = TempPath("faulted.txt");
  Status status = WriteFileAtomic(path, "never lands");
  FaultInjector::Global().Reset();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

}  // namespace
}  // namespace fairclean
