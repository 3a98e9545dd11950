#include "sched/artifact_store.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace fairclean {
namespace sched {
namespace {

Result<std::shared_ptr<const void>> MakeInt(int value) {
  return std::shared_ptr<const void>(std::make_shared<const int>(value));
}

TEST(ArtifactStoreTest, ProducesOnceAndReuses) {
  obs::MetricsRegistry metrics;
  ArtifactStore store(&metrics);
  std::atomic<int> calls{0};
  Result<std::shared_ptr<const int>> first =
      store.GetOrCreateAs<int>("k", [&]() -> Result<int> {
        ++calls;
        return 7;
      });
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(**first, 7);
  Result<std::shared_ptr<const int>> second =
      store.GetOrCreateAs<int>("k", [&]() -> Result<int> {
        ++calls;
        return 8;  // must never run
      });
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(**second, 7);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(store.produced(), 1u);
  EXPECT_EQ(store.reused(), 1u);
}

TEST(ArtifactStoreTest, DeterministicFailureIsMemoized) {
  obs::MetricsRegistry metrics;
  ArtifactStore store(&metrics);
  std::atomic<int> calls{0};
  auto produce = [&calls]() -> Result<std::shared_ptr<const void>> {
    ++calls;
    return Status::InvalidArgument("bad key");
  };
  Result<std::shared_ptr<const void>> first = store.GetOrCreate("k", produce);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kInvalidArgument);
  // Deterministic failure: consumers share the verdict, producer never
  // re-runs.
  Result<std::shared_ptr<const void>> second = store.GetOrCreate("k", produce);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls.load(), 1);
}

TEST(ArtifactStoreTest, TransientFailureIsNotMemoized) {
  // A deadline expiry leaves the finished repeat slices on disk and must
  // not poison the key: the next request re-runs the producer and resumes. Same for overload
  // shedding (Unavailable).
  for (const Status& transient :
       {Status::DeadlineExceeded("out of time"),
        Status::Unavailable("shed")}) {
    obs::MetricsRegistry metrics;
    ArtifactStore store(&metrics);
    std::atomic<int> calls{0};
    auto produce = [&]() -> Result<std::shared_ptr<const void>> {
      if (++calls == 1) return transient;
      return MakeInt(42);
    };
    Result<std::shared_ptr<const void>> first =
        store.GetOrCreate("k", produce);
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.status().code(), transient.code());
    Result<std::shared_ptr<const void>> second =
        store.GetOrCreate("k", produce);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(*static_cast<const int*>(second->get()), 42);
    EXPECT_EQ(calls.load(), 2);
  }
}

TEST(ArtifactStoreTest, WaiterDeadlineExpiresWithoutDisturbingOwner) {
  obs::MetricsRegistry metrics;
  ArtifactStore store(&metrics);

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool owner_started = false;
  bool release_owner = false;

  std::thread owner([&] {
    Result<std::shared_ptr<const void>> value = store.GetOrCreate(
        "slow", [&]() -> Result<std::shared_ptr<const void>> {
          // Producing proves ownership; announce it, then hold production
          // until the waiter has timed out.
          std::unique_lock<std::mutex> lock(gate_mutex);
          owner_started = true;
          gate_cv.notify_all();
          gate_cv.wait(lock, [&] { return release_owner; });
          return MakeInt(5);
        });
    EXPECT_TRUE(value.ok());
  });

  // Only query once the owner demonstrably holds the key, so this thread
  // is deterministically a waiter.
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return owner_started; });
  }
  Result<std::shared_ptr<const void>> waited = store.GetOrCreate(
      "slow",
      []() -> Result<std::shared_ptr<const void>> { return MakeInt(9); },
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20));
  // EXPECT (not ASSERT): the owner thread must always be released+joined,
  // even on failure.
  EXPECT_FALSE(waited.ok());
  if (!waited.ok()) {
    EXPECT_EQ(waited.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(
        waited.status().message().find(
            "deadline expired waiting for in-flight production of slow"),
        std::string::npos);
  }

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release_owner = true;
  }
  gate_cv.notify_all();
  owner.join();

  // The owner's production completed untouched; the value is memoized.
  Result<std::shared_ptr<const void>> value = store.GetOrCreate(
      "slow",
      []() -> Result<std::shared_ptr<const void>> { return MakeInt(9); });
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*static_cast<const int*>(value->get()), 5);
}

TEST(ArtifactStoreTest, KeysAreSorted) {
  obs::MetricsRegistry metrics;
  ArtifactStore store(&metrics);
  ASSERT_TRUE(store.GetOrCreate("b", []() { return MakeInt(1); }).ok());
  ASSERT_TRUE(store.GetOrCreate("a", []() { return MakeInt(2); }).ok());
  EXPECT_EQ(store.Keys(), (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace sched
}  // namespace fairclean
