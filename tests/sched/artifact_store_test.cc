#include "sched/artifact_store.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "sched/suite_runner.h"
#include "sched/suite_spec.h"

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
  // A time-budget expiry leaves the finished repeat slices on disk and must
  // not poison the key: the next request re-runs the producer and resumes.
  obs::MetricsRegistry metrics;
  ArtifactStore store(&metrics);
  std::atomic<int> calls{0};
  auto produce = [&]() -> Result<std::shared_ptr<const void>> {
    if (++calls == 1) return Status::DeadlineExceeded("out of time");
    return MakeInt(42);
  };
  Result<std::shared_ptr<const void>> first = store.GetOrCreate("k", produce);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kDeadlineExceeded);
  Result<std::shared_ptr<const void>> second = store.GetOrCreate("k", produce);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*static_cast<const int*>(second->get()), 42);
  EXPECT_EQ(calls.load(), 2);
}

TEST(ArtifactStoreTest, WaiterSharesTheOwnersProduction) {
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
          // until released.
          std::unique_lock<std::mutex> lock(gate_mutex);
          owner_started = true;
          gate_cv.notify_all();
          gate_cv.wait(lock, [&] { return release_owner; });
          return MakeInt(5);
        });
    EXPECT_TRUE(value.ok());
  });

  // Only query once the owner demonstrably holds the key, so the waiter
  // thread never runs its producer.
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return owner_started; });
  }
  Result<std::shared_ptr<const void>> waited = Status::Internal("unset");
  std::thread waiter([&] {
    waited = store.GetOrCreate(
        "slow",
        []() -> Result<std::shared_ptr<const void>> { return MakeInt(9); });
  });
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release_owner = true;
  }
  gate_cv.notify_all();
  owner.join();
  waiter.join();

  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  EXPECT_EQ(*static_cast<const int*>(waited->get()), 5);
  EXPECT_EQ(store.produced(), 1u);
  EXPECT_EQ(store.reused(), 1u);
}

TEST(ArtifactStoreTest, KeysAreSorted) {
  obs::MetricsRegistry metrics;
  ArtifactStore store(&metrics);
  ASSERT_TRUE(store.GetOrCreate("b", []() { return MakeInt(1); }).ok());
  ASSERT_TRUE(store.GetOrCreate("a", []() { return MakeInt(2); }).ok());
  EXPECT_EQ(store.Keys(), (std::vector<std::string>{"a", "b"}));
}

TEST(DatasetHandleTest, SpecIsImmediateAndRowsAreGeneratedOnce) {
  obs::MetricsRegistry metrics;
  ArtifactStore store(&metrics);
  obs::Counter* generated = metrics.GetCounter("sched.datasets_generated");
  Result<std::shared_ptr<const DatasetHandle>> handle =
      DatasetArtifact(&store, "german", 42, generated);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ((*handle)->spec().name, "german");
  EXPECT_TRUE((*handle)->spec().intersectional);
  EXPECT_EQ(generated->value(), 0u);

  // One artifact-store entry, as before the rows became lazy.
  Result<std::shared_ptr<const DatasetHandle>> again =
      DatasetArtifact(&store, "german", 42, generated);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), handle->get());
  EXPECT_EQ(store.produced(), 1u);
  EXPECT_EQ(store.reused(), 1u);

  // Concurrent first calls share one generation.
  std::vector<const GeneratedDataset*> rows(4, nullptr);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < rows.size(); ++i) {
    threads.emplace_back([&, i] {
      Result<const GeneratedDataset*> got = (*handle)->Rows();
      if (got.ok()) rows[i] = *got;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(generated->value(), 1u);
  ASSERT_NE(rows[0], nullptr);
  for (const GeneratedDataset* row : rows) EXPECT_EQ(row, rows[0]);
  EXPECT_EQ(store.produced(), 1u);

  // The rows are MakeSuiteDataset's, under the handle's spec.
  GeneratedDataset expected = MakeSuiteDataset("german", 42).ValueOrDie();
  ASSERT_EQ(rows[0]->frame.num_rows(), expected.frame.num_rows());
  EXPECT_EQ(rows[0]->true_labels, expected.true_labels);
  EXPECT_EQ(rows[0]->spec.label, (*handle)->spec().label);
}

TEST(DatasetHandleTest, UnknownDatasetFailsWithoutGenerating) {
  obs::MetricsRegistry metrics;
  ArtifactStore store(&metrics);
  obs::Counter* generated = metrics.GetCounter("sched.datasets_generated");
  Result<std::shared_ptr<const DatasetHandle>> handle =
      DatasetArtifact(&store, "nope", 42, generated);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(generated->value(), 0u);
}

}  // namespace
}  // namespace sched
}  // namespace fairclean
