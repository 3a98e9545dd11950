#ifndef FAIRCLEAN_SCHED_ARTIFACT_STORE_H_
#define FAIRCLEAN_SCHED_ARTIFACT_STORE_H_

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace fairclean {
namespace sched {

/// Content-addressed, in-process memoization of shared suite artifacts
/// (dataset handles, experiment-cell records, disparity analyses).
///
/// Keys are canonical serializations of everything that determines the
/// artifact's bytes (see DatasetArtifactKey / CellArtifactKey /
/// DisparityArtifactKey): because every producer is deterministic given
/// those inputs, key equality implies byte equality, and an artifact is
/// produced exactly once no matter how many graph nodes consume it.
///
/// Thread-safe: concurrent GetOrCreate calls for the same key block until
/// the first caller's producer finishes, then share its value (or its
/// failure). Production runs outside the store lock, so distinct keys
/// produce concurrently. Counters "sched.artifacts_produced" and
/// "sched.artifacts_reused" record first productions and cache hits.
class ArtifactStore {
 public:
  /// Instruments are registered on `metrics` (pass a scheduler-scoped
  /// registry so suite counters stay separable from the global export).
  explicit ArtifactStore(obs::MetricsRegistry* metrics);

  using Producer = std::function<Result<std::shared_ptr<const void>>()>;

  /// Returns the artifact for `key`, running `producer` if and only if this
  /// is the first request. A deterministically failed production is
  /// memoized too: every consumer of the key sees the same status instead
  /// of retrying a deterministic failure. A DeadlineExceeded failure (a
  /// cell stopped by the time budget, its finished repeats persisted as
  /// slices) is NOT memoized — the entry is dropped so a later request
  /// re-runs the producer and resumes from the slices.
  Result<std::shared_ptr<const void>> GetOrCreate(const std::string& key,
                                                  const Producer& producer);

  /// Typed convenience wrapper: `produce` returns Result<T>.
  template <typename T, typename Fn>
  Result<std::shared_ptr<const T>> GetOrCreateAs(const std::string& key,
                                                 Fn&& produce) {
    Result<std::shared_ptr<const void>> erased = GetOrCreate(
        key, [&]() -> Result<std::shared_ptr<const void>> {
          Result<T> value = produce();
          if (!value.ok()) return value.status();
          return std::shared_ptr<const void>(
              std::make_shared<const T>(std::move(*value)));
        });
    if (!erased.ok()) return erased.status();
    // Keys carry a type namespace prefix ("dataset:", "cell:", ...), so a
    // key is only ever requested at one T.
    return std::static_pointer_cast<const T>(*erased);
  }

  /// First productions so far (including failed ones).
  uint64_t produced() const;
  /// Requests served from an already-produced entry.
  uint64_t reused() const;
  /// All keys requested so far, sorted.
  std::vector<std::string> Keys() const;

 private:
  struct Entry {
    bool ready = false;
    Status status = Status::OK();
    std::shared_ptr<const void> value;
  };

  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::map<std::string, std::shared_ptr<Entry>> entries_;
  obs::Counter* produced_;
  obs::Counter* reused_;
};

}  // namespace sched
}  // namespace fairclean

#endif  // FAIRCLEAN_SCHED_ARTIFACT_STORE_H_
