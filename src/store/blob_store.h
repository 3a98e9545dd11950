#ifndef FAIRCLEAN_STORE_BLOB_STORE_H_
#define FAIRCLEAN_STORE_BLOB_STORE_H_

#include <string>

#include "common/status.h"

namespace fairclean {
namespace store {

/// The artifact byte store: one file per key under a cache directory
/// (DESIGN.md Section 11). Keys are cache-file basenames (e.g. the cell
/// record "adult_outliers_LR_s7_n3_r2_f0.json" or one of its repeat slices,
/// "slice:v1:adult_outliers_LR_s7_n3_f0_slot1"); values
/// are the exact file bytes, checksum footer included. The store never
/// interprets the bytes — footers stay the caller's concern.
///
/// Write probes the "cache_write" fault site (through WriteFileAtomic).
/// Read is unprobed — callers that need a "cache_read" probe (the driver's
/// slice load) arm it themselves.
class FlatFileStore {
 public:
  explicit FlatFileStore(std::string dir);

  /// Stores `bytes` under `key` atomically, replacing any previous value.
  Status Write(const std::string& key, const std::string& bytes) const;

  /// The exact bytes last written under `key`. NotFound when absent.
  Result<std::string> Read(const std::string& key) const;

  /// Removes `key`. Idempotent: OK when already absent.
  Status Remove(const std::string& key) const;

  Result<bool> Contains(const std::string& key) const;

  /// Moves a damaged record aside to a unique quarantine path
  /// ("<dir>/<key>.corrupt", then "<key>.corrupt.1", ...) so recomputation
  /// never destroys the evidence, and returns that path.
  Result<std::string> Quarantine(const std::string& key) const;

  /// Path of `key`'s file, for error messages.
  std::string Describe(const std::string& key) const;

 private:
  std::string dir_;
};

}  // namespace store
}  // namespace fairclean

#endif  // FAIRCLEAN_STORE_BLOB_STORE_H_
