#ifndef FAIRCLEAN_COMMON_SAFE_IO_H_
#define FAIRCLEAN_COMMON_SAFE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace fairclean {

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) of `data`.
uint32_t Crc32(std::string_view data);

/// Reads an entire file into a string.
Result<std::string> ReadFileToString(const std::string& path);

/// Crash-safe file write: writes `content` to `<path>.tmp`, fsyncs, then
/// atomically renames over `path`. A crash at any point leaves either the
/// old file or the new file, never a truncated mix. Subject to the
/// "cache_write" fault-injection site.
Status WriteFileAtomic(const std::string& path, const std::string& content);

/// The footer line AppendChecksumFooter adds:
/// "#fc-crc32 <8 hex digits> len=<body bytes>\n". The '#' prefix keeps the
/// body parseable by readers that stop at the end of the payload.
constexpr char kChecksumFooterPrefix[] = "#fc-crc32 ";

/// Returns `body` with the checksum footer appended.
std::string AppendChecksumFooter(const std::string& body);

/// Splits a footer off `content` and verifies it. Returns the body on
/// success; InvalidArgument when the footer is missing (truncated file) or
/// not the final line, or the checksum / length does not match (bit rot,
/// partial write).
Result<std::string> VerifyChecksumFooter(const std::string& content);

/// Moves a damaged file aside to `<path>.corrupt` — or, when that name is
/// already taken, `<path>.corrupt.1`, `<path>.corrupt.2`, ... — so the
/// caller can recompute without destroying the evidence. Every quarantine
/// is preserved: repeated corruption of the same path never overwrites an
/// earlier quarantined file. Returns the quarantine path.
Result<std::string> QuarantineFile(const std::string& path);

}  // namespace fairclean

#endif  // FAIRCLEAN_COMMON_SAFE_IO_H_
