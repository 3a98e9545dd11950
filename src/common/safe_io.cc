#include "common/safe_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/fault_injection.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fairclean {

namespace {

void CountBytesRead(size_t bytes) {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("io.bytes_read");
  counter->Increment(bytes);
}

void CountBytesWritten(size_t bytes) {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("io.bytes_written");
  counter->Increment(bytes);
}

// Slice-by-8 tables: table[0] is the classic byte-at-a-time table of the
// reflected IEEE polynomial; table[k][b] is the CRC of byte b followed by k
// zero bytes, so eight table lookups fold eight input bytes at once.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

Crc32Tables BuildCrc32Tables() {
  Crc32Tables table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
    }
    table[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      uint32_t prev = table[k - 1][i];
      table[k][i] = (prev >> 8) ^ table[0][prev & 0xffu];
    }
  }
  return table;
}

// Little-endian 32-bit load, independent of host byte order.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

// The checksum footer line of `body`, newline included.
std::string FooterLine(const std::string& body) {
  return StrFormat("%s%08x len=%zu\n", kChecksumFooterPrefix, Crc32(body),
                   body.size());
}

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const Crc32Tables table = BuildCrc32Tables();
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = crc ^ LoadLe32(p);
    uint32_t hi = LoadLe32(p + 4);
    crc = table[7][lo & 0xffu] ^ table[6][(lo >> 8) & 0xffu] ^
          table[5][(lo >> 16) & 0xffu] ^ table[4][lo >> 24] ^
          table[3][hi & 0xffu] ^ table[2][(hi >> 8) & 0xffu] ^
          table[1][(hi >> 16) & 0xffu] ^ table[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ table[0][(crc ^ *p) & 0xffu];
  return crc ^ 0xffffffffu;
}

Result<std::string> ReadFileToString(const std::string& path) {
  obs::TraceSpan span("io", [&] { return "read " + path; });
  std::ifstream stream(path, std::ios::binary);
  if (!stream) {
    return Status::IoError("cannot open: " + path);
  }
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  if (stream.bad()) {
    return Status::IoError("read failed: " + path);
  }
  std::string content = buffer.str();
  CountBytesRead(content.size());
  return content;
}

Status WriteFileAtomic(const std::string& path, const std::string& content) {
  obs::TraceSpan span("io", [&] { return "write " + path; });
  FC_RETURN_IF_ERROR(FaultInjector::Global().Inject("cache_write"));
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError(ErrnoMessage("cannot open for writing", tmp));
  }
  size_t written = 0;
  while (written < content.size()) {
    ssize_t n = ::write(fd, content.data() + written,
                        content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IoError(ErrnoMessage("write failed", tmp));
    }
    written += static_cast<size_t>(n);
  }
  // fsync before rename: the rename must not become durable before the
  // data it points at.
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IoError(ErrnoMessage("fsync failed", tmp));
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::IoError(ErrnoMessage("close failed", tmp));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IoError(ErrnoMessage("rename failed", path));
  }
  CountBytesWritten(content.size());
  return Status::OK();
}

std::string AppendChecksumFooter(const std::string& body) {
  return body + FooterLine(body);
}

Result<std::string> VerifyChecksumFooter(const std::string& content) {
  size_t footer = content.rfind(kChecksumFooterPrefix);
  if (footer == std::string::npos ||
      (footer != 0 && content[footer - 1] != '\n')) {
    return Status::InvalidArgument("missing checksum footer");
  }
  // Bytes after the footer line are damage too: the footer vouches for
  // the whole file, not a prefix of it.
  if (content.find('\n', footer) != content.size() - 1) {
    return Status::InvalidArgument("checksum footer is not the final line");
  }
  std::string body = content.substr(0, footer);
  // The footer has one spelling, the line AppendChecksumFooter writes for
  // this body. A lenient parse would also take upper-case hex digits or
  // extra spaces, and so miss some single-byte changes to a record.
  std::string expected = FooterLine(body);
  if (content.compare(footer, std::string::npos, expected) != 0) {
    expected.pop_back();
    return Status::InvalidArgument(
        "checksum footer \"" +
        content.substr(footer, content.size() - 1 - footer) +
        "\" does not match the body (expected \"" + expected + "\")");
  }
  return body;
}

Result<std::string> QuarantineFile(const std::string& path) {
  // Unique suffixes (.corrupt, .corrupt.1, ...): a second corruption of
  // the same path used to silently overwrite the first quarantine, which
  // destroyed exactly the evidence quarantining exists to keep.
  std::string quarantined = path + ".corrupt";
  for (int n = 1; std::filesystem::exists(quarantined); ++n) {
    quarantined = StrFormat("%s.corrupt.%d", path.c_str(), n);
  }
  if (std::rename(path.c_str(), quarantined.c_str()) != 0) {
    return Status::IoError(ErrnoMessage("quarantine rename failed", path));
  }
  return quarantined;
}

}  // namespace fairclean
