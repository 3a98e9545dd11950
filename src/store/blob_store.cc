#include "store/blob_store.h"

#include <filesystem>
#include <system_error>
#include <utility>

#include "common/safe_io.h"

namespace fairclean {
namespace store {

FlatFileStore::FlatFileStore(std::string dir) : dir_(std::move(dir)) {}

std::string FlatFileStore::Describe(const std::string& key) const {
  return dir_ + "/" + key;
}

Status FlatFileStore::Write(const std::string& key,
                            const std::string& bytes) const {
  // WriteFileAtomic probes the "cache_write" site itself.
  return WriteFileAtomic(Describe(key), bytes);
}

Result<std::string> FlatFileStore::Read(const std::string& key) const {
  const std::string path = Describe(key);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return Status::NotFound("store has no record \"" + key + "\"");
  }
  return ReadFileToString(path);
}

Status FlatFileStore::Remove(const std::string& key) const {
  std::error_code ec;
  std::filesystem::remove(Describe(key), ec);
  if (ec) {
    return Status::IoError("removing " + Describe(key) + ": " +
                           ec.message());
  }
  return Status::OK();
}

Result<bool> FlatFileStore::Contains(const std::string& key) const {
  std::error_code ec;
  return std::filesystem::exists(Describe(key), ec);
}

Result<std::string> FlatFileStore::Quarantine(const std::string& key) const {
  return QuarantineFile(Describe(key));
}

}  // namespace store
}  // namespace fairclean
