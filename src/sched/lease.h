#ifndef FAIRCLEAN_SCHED_LEASE_H_
#define FAIRCLEAN_SCHED_LEASE_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace fairclean {
namespace sched {

/// One claim record as persisted in a lease file: the owning process, the
/// monotonic deadline its lease runs to, a generation counter that grows by
/// one on every ownership change, and a human-readable owner label for
/// diagnostics. CLOCK_MONOTONIC is system-wide on one machine, so deadlines
/// written by one process are directly comparable in another.
struct LeaseRecord {
  int64_t pid = 0;  ///< 0: released (the key is free)
  double deadline_mono_s = 0.0;
  uint64_t generation = 0;
  std::string owner;

  bool released() const { return pid == 0; }
};

/// Seconds on the CLOCK_MONOTONIC clock (comparable across processes on
/// one machine, immune to wall-clock steps).
double MonotonicSeconds();

/// True when `pid` names a live process (kill(pid, 0) semantics: EPERM
/// still counts as alive — the process exists, we just cannot signal it).
bool PidAlive(int64_t pid);

/// How an Acquire must treat an existing record. This is the protocol's
/// whole steal rule as one pure function — the property tests pin it, and
/// Acquire merely applies it under the file lock.
enum class ClaimState {
  kFree,       ///< released record: acquire without stealing
  kHeld,       ///< live owner inside its lease: acquire must fail
  kStealable,  ///< owner dead, or its lease deadline has passed
};

/// Deterministic given (record, now, owner_alive): a released record is
/// free; a live owner whose deadline is still ahead holds; everything else
/// (dead pid, or deadline passed even for a live-but-wedged owner) is
/// stealable.
ClaimState ClassifyClaim(const LeaseRecord& record, double now_mono_s,
                         bool owner_alive);

/// Proof of a successful Acquire: the key, the generation the caller owns,
/// and whether ownership was taken from a dead/expired previous holder
/// (`stolen`) rather than a free record.
struct LeaseToken {
  std::string key;
  uint64_t generation = 0;
  bool stolen = false;
};

/// Single-producer claim records for cross-process work coordination
/// (DESIGN.md Section 16). Each key is one file under `dir`; every
/// operation is a read-modify-write under an exclusive flock on that file,
/// so concurrent Acquire/Refresh/Release calls from any number of
/// processes serialize per key and exactly one caller wins each ownership
/// change. Files are never unlinked (Release writes a released record
/// instead), which closes the classic unlink-vs-flock orphan-inode race.
///
/// Claims deliberately do NOT go through the artifact store: they are
/// coordination state, not artifacts, so they must not pollute artifact
/// stores, reuse counters, or cache-directory byte comparisons.
class LeaseStore {
 public:
  /// `dir` is created on first use (conventionally "<cache_dir>/claims").
  explicit LeaseStore(std::string dir);

  /// Takes ownership of `key` for `lease_s` seconds from now. Fails with
  /// Unavailable while a live owner's lease is running (re-acquiring a key
  /// this process already owns just extends it). A record left by a dead
  /// process or past its deadline is stolen: the returned token has
  /// `stolen` set and a bumped generation.
  Result<LeaseToken> Acquire(const std::string& key, const std::string& owner,
                             double lease_s);

  /// Extends the lease of a token this process still owns by `lease_s`
  /// from now. FailedPrecondition when the claim was stolen or released —
  /// the caller no longer owns the key and must stop producing under it.
  Status Refresh(const LeaseToken& token, double lease_s);

  /// Releases a token this process owns (writes a released record, keeping
  /// the generation so later acquires keep monotonic history). Releasing a
  /// stolen-away token is a no-op OK: the new owner's record stays.
  Status Release(const LeaseToken& token);

  /// The current record of `key`. NotFound when no claim file exists.
  Result<LeaseRecord> Read(const std::string& key) const;

  const std::string& dir() const { return dir_; }

  /// One-line serialization used in the claim files (format:
  /// "pid <pid> deadline <secs> gen <n> owner <label>\n").
  static std::string Encode(const LeaseRecord& record);
  static Result<LeaseRecord> Decode(const std::string& text);

 private:
  std::string PathFor(const std::string& key) const;

  std::string dir_;
};

}  // namespace sched
}  // namespace fairclean

#endif  // FAIRCLEAN_SCHED_LEASE_H_
