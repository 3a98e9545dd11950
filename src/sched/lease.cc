#include "sched/lease.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <utility>

namespace fairclean {
namespace sched {
namespace {

/// RAII wrapper for an open, exclusively flocked claim file. All claim
/// mutations happen through one of these, so concurrent processes
/// serialize per key at the kernel.
class LockedClaimFile {
 public:
  static Result<LockedClaimFile> Open(const std::string& path,
                                      bool create_ok) {
    int flags = O_RDWR | O_CLOEXEC;
    if (create_ok) flags |= O_CREAT;
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
      if (errno == ENOENT && !create_ok) {
        return Status::NotFound("no claim file: " + path);
      }
      return Status::IoError("open " + path + ": " + std::strerror(errno));
    }
    while (::flock(fd, LOCK_EX) != 0) {
      if (errno == EINTR) continue;
      int saved = errno;
      ::close(fd);
      return Status::IoError("flock " + path + ": " + std::strerror(saved));
    }
    return LockedClaimFile(fd);
  }

  LockedClaimFile(LockedClaimFile&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
  }
  LockedClaimFile& operator=(LockedClaimFile&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  LockedClaimFile(const LockedClaimFile&) = delete;
  LockedClaimFile& operator=(const LockedClaimFile&) = delete;
  ~LockedClaimFile() { Close(); }

  Result<std::string> ReadAll() const {
    std::string out;
    char buf[256];
    off_t off = 0;
    for (;;) {
      ssize_t n = ::pread(fd_, buf, sizeof(buf), off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(std::string("pread claim: ") +
                               std::strerror(errno));
      }
      if (n == 0) break;
      out.append(buf, static_cast<size_t>(n));
      off += n;
    }
    return out;
  }

  Status Rewrite(const std::string& text) {
    if (::ftruncate(fd_, 0) != 0) {
      return Status::IoError(std::string("ftruncate claim: ") +
                             std::strerror(errno));
    }
    size_t done = 0;
    while (done < text.size()) {
      ssize_t n = ::pwrite(fd_, text.data() + done, text.size() - done,
                           static_cast<off_t>(done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(std::string("pwrite claim: ") +
                               std::strerror(errno));
      }
      done += static_cast<size_t>(n);
    }
    if (::fsync(fd_) != 0) {
      return Status::IoError(std::string("fsync claim: ") +
                             std::strerror(errno));
    }
    return Status::OK();
  }

 private:
  explicit LockedClaimFile(int fd) : fd_(fd) {}

  void Close() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
      fd_ = -1;
    }
  }

  int fd_ = -1;
};

/// Claim keys may contain '/' (cell ids do); the file name flattens them.
std::string SanitizeKey(const std::string& key) {
  std::string out = key;
  for (char& c : out) {
    if (c == '/' || c == '\\' || c == ':') c = '_';
  }
  return out;
}

}  // namespace

double MonotonicSeconds() {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

bool PidAlive(int64_t pid) {
  if (pid <= 0) return false;
  if (::kill(static_cast<pid_t>(pid), 0) == 0) return true;
  // EPERM: the process exists but we may not signal it.
  return errno == EPERM;
}

ClaimState ClassifyClaim(const LeaseRecord& record, double now_mono_s,
                         bool owner_alive) {
  if (record.released()) return ClaimState::kFree;
  if (!owner_alive) return ClaimState::kStealable;
  if (now_mono_s > record.deadline_mono_s) return ClaimState::kStealable;
  return ClaimState::kHeld;
}

std::string LeaseStore::Encode(const LeaseRecord& record) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "pid %lld deadline %.9f gen %llu owner ",
                static_cast<long long>(record.pid), record.deadline_mono_s,
                static_cast<unsigned long long>(record.generation));
  return std::string(buf) + record.owner + "\n";
}

Result<LeaseRecord> LeaseStore::Decode(const std::string& text) {
  std::istringstream in(text);
  std::string tag_pid, tag_deadline, tag_gen, tag_owner;
  LeaseRecord record;
  long long pid = 0;
  unsigned long long gen = 0;
  if (!(in >> tag_pid >> pid >> tag_deadline >> record.deadline_mono_s >>
        tag_gen >> gen >> tag_owner) ||
      tag_pid != "pid" || tag_deadline != "deadline" || tag_gen != "gen" ||
      tag_owner != "owner") {
    return Status::IoError("malformed claim record: " + text);
  }
  record.pid = pid;
  record.generation = gen;
  in >> record.owner;  // may be empty for a released record
  return record;
}

LeaseStore::LeaseStore(std::string dir) : dir_(std::move(dir)) {}

std::string LeaseStore::PathFor(const std::string& key) const {
  return dir_ + "/" + SanitizeKey(key) + ".lease";
}

Result<LeaseToken> LeaseStore::Acquire(const std::string& key,
                                       const std::string& owner,
                                       double lease_s) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::IoError("create claims dir " + dir_ + ": " + ec.message());
  }
  FC_ASSIGN_OR_RETURN(LockedClaimFile file,
                      LockedClaimFile::Open(PathFor(key), /*create_ok=*/true));
  FC_ASSIGN_OR_RETURN(std::string text, file.ReadAll());

  LeaseRecord prev;
  bool stolen = false;
  if (!text.empty()) {
    FC_ASSIGN_OR_RETURN(prev, Decode(text));
    const int64_t self = static_cast<int64_t>(::getpid());
    if (prev.pid != self) {
      ClaimState state =
          ClassifyClaim(prev, MonotonicSeconds(), PidAlive(prev.pid));
      if (state == ClaimState::kHeld) {
        return Status::Unavailable("claim " + key + " held by pid " +
                                   std::to_string(prev.pid));
      }
      stolen = state == ClaimState::kStealable;
    }
  }

  LeaseRecord next;
  next.pid = static_cast<int64_t>(::getpid());
  next.deadline_mono_s = MonotonicSeconds() + lease_s;
  next.generation = prev.generation + 1;
  next.owner = owner;
  FC_RETURN_IF_ERROR(file.Rewrite(Encode(next)));

  LeaseToken token;
  token.key = key;
  token.generation = next.generation;
  token.stolen = stolen;
  return token;
}

Status LeaseStore::Refresh(const LeaseToken& token, double lease_s) {
  FC_ASSIGN_OR_RETURN(
      LockedClaimFile file,
      LockedClaimFile::Open(PathFor(token.key), /*create_ok=*/false));
  FC_ASSIGN_OR_RETURN(std::string text, file.ReadAll());
  FC_ASSIGN_OR_RETURN(LeaseRecord record, Decode(text));
  if (record.pid != static_cast<int64_t>(::getpid()) ||
      record.generation != token.generation) {
    return Status::InvalidArgument("claim " + token.key +
                                   " no longer owned by this process");
  }
  record.deadline_mono_s = MonotonicSeconds() + lease_s;
  return file.Rewrite(Encode(record));
}

Status LeaseStore::Release(const LeaseToken& token) {
  auto opened = LockedClaimFile::Open(PathFor(token.key), /*create_ok=*/false);
  if (!opened.ok()) {
    // Never created (or swept): nothing to release.
    if (opened.status().code() == StatusCode::kNotFound) return Status::OK();
    return opened.status();
  }
  LockedClaimFile file = std::move(opened).ValueOrDie();
  FC_ASSIGN_OR_RETURN(std::string text, file.ReadAll());
  FC_ASSIGN_OR_RETURN(LeaseRecord record, Decode(text));
  if (record.pid != static_cast<int64_t>(::getpid()) ||
      record.generation != token.generation) {
    // Stolen away: the new owner's record stands.
    return Status::OK();
  }
  record.pid = 0;  // released marker; generation and owner kept for history
  return file.Rewrite(LeaseStore::Encode(record));
}

Result<LeaseRecord> LeaseStore::Read(const std::string& key) const {
  FC_ASSIGN_OR_RETURN(
      LockedClaimFile file,
      LockedClaimFile::Open(PathFor(key), /*create_ok=*/false));
  FC_ASSIGN_OR_RETURN(std::string text, file.ReadAll());
  return Decode(text);
}

}  // namespace sched
}  // namespace fairclean
