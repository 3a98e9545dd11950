#include "sched/artifact_store.h"

namespace fairclean {
namespace sched {

ArtifactStore::ArtifactStore(obs::MetricsRegistry* metrics)
    : produced_(metrics->GetCounter("sched.artifacts_produced")),
      reused_(metrics->GetCounter("sched.artifacts_reused")) {}

namespace {

// Failures worth retrying: the producer stopped at a request deadline
// (checkpointed, resumable) or was shed under overload. Everything else is
// deterministic given the key and stays memoized.
bool IsTransient(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kUnavailable;
}

}  // namespace

Result<std::shared_ptr<const void>> ArtifactStore::GetOrCreate(
    const std::string& key, const Producer& producer,
    const Deadline& deadline) {
  std::shared_ptr<Entry> entry;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = entries_.try_emplace(key);
    if (inserted) {
      it->second = std::make_shared<Entry>();
      owner = true;
    }
    entry = it->second;
  }

  if (owner) {
    // Produce outside the lock so distinct keys build concurrently.
    Result<std::shared_ptr<const void>> value = producer();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (value.ok()) {
        entry->value = *value;
      } else {
        entry->status = value.status();
        if (IsTransient(entry->status)) {
          // Waiters blocked on this entry still observe the transient
          // status (via their shared_ptr), but the key is vacated so the
          // next request re-runs the producer — which resumes from the
          // slices instead of replaying a memoized failure forever.
          auto it = entries_.find(key);
          if (it != entries_.end() && it->second == entry) entries_.erase(it);
        }
      }
      entry->ready = true;
    }
    ready_cv_.notify_all();
    produced_->Increment();
    if (!entry->status.ok()) return entry->status;
    return entry->value;
  }

  std::unique_lock<std::mutex> lock(mutex_);
  if (deadline.has_value()) {
    if (!ready_cv_.wait_until(lock, *deadline,
                              [&entry] { return entry->ready; })) {
      return Status::DeadlineExceeded(
          "deadline expired waiting for in-flight production of " + key);
    }
  } else {
    ready_cv_.wait(lock, [&entry] { return entry->ready; });
  }
  reused_->Increment();
  if (!entry->status.ok()) return entry->status;
  return entry->value;
}

uint64_t ArtifactStore::produced() const { return produced_->value(); }

uint64_t ArtifactStore::reused() const { return reused_->value(); }

std::vector<std::string> ArtifactStore::Keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) keys.push_back(key);
  return keys;
}

}  // namespace sched
}  // namespace fairclean
