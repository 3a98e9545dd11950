#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fairclean {
namespace {

TEST(ThreadPoolTest, SubmittedTasksDeliverResultsThroughFutures) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, ThreadCountIsClampedToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.Submit([]() { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ExceptionIsRethrownAtGetNotOnTheWorker) {
  ThreadPool pool(2);
  std::future<int> future =
      pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The worker survived the throw and keeps serving tasks.
  EXPECT_EQ(pool.Submit([]() { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, DestructorRunsEverySubmittedTask) {
  std::atomic<int> executed{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      futures.push_back(pool.Submit([&executed]() { ++executed; }));
    }
    // Destroy the pool while tasks are likely still queued.
  }
  EXPECT_EQ(executed.load(), 32);
  for (std::future<void>& future : futures) {
    future.get();  // all futures are satisfied, none broken
  }
}

TEST(ThreadPoolTest, DestructorDrainsWhileSubmittersRace) {
  // Shutdown under pressure: four submitter threads race each other (and
  // the workers) feeding the pool, and the destructor runs the moment the
  // last submit lands — with a deep backlog still queued, since two
  // workers can't keep up with four submitters of slow-ish tasks. Every
  // future handed out must be satisfied; nothing may hang or be dropped.
  constexpr int kPerSubmitter = 64;
  std::atomic<int> executed{0};
  std::vector<std::vector<std::future<int>>> futures(4);
  {
    ThreadPool pool(2);
    std::vector<std::thread> submitters;
    for (size_t s = 0; s < futures.size(); ++s) {
      submitters.emplace_back([&pool, &executed, &futures, s] {
        for (int i = 0; i < kPerSubmitter; ++i) {
          futures[s].push_back(pool.Submit([&executed] {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            return ++executed;
          }));
        }
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
    // Destructor runs here, with most of the 256 tasks still queued.
  }
  EXPECT_EQ(executed.load(),
            static_cast<int>(futures.size()) * kPerSubmitter);
  for (std::vector<std::future<int>>& per_thread : futures) {
    for (std::future<int>& future : per_thread) {
      EXPECT_GT(future.get(), 0);  // drain-all destructor: none broken
    }
  }
}

TEST(ThreadPoolTest, ThrowingTaskDoesNotPoisonLaterWork) {
  // A batch where half the tasks throw: the pool's workers must survive
  // every throw and the destructor must still drain the rest.
  std::atomic<int> completed{0};
  std::vector<std::future<int>> futures;
  {
    ThreadPool pool(3);
    for (int i = 0; i < 48; ++i) {
      futures.push_back(pool.Submit([&completed, i]() -> int {
        if (i % 2 == 0) throw std::runtime_error("boom");
        ++completed;
        return i;
      }));
    }
  }
  EXPECT_EQ(completed.load(), 24);
  for (int i = 0; i < 48; ++i) {
    if (i % 2 == 0) {
      EXPECT_THROW(futures[i].get(), std::runtime_error);
    } else {
      EXPECT_EQ(futures[i].get(), i);
    }
  }
}

TEST(ThreadPoolTest, OnWorkerThreadIsTrueOnlyInsideTasks) {
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
  ThreadPool pool(2);
  EXPECT_TRUE(pool.Submit([]() { return ThreadPool::OnWorkerThread(); }).get());
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnvironment) {
  ASSERT_EQ(setenv("FAIRCLEAN_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3u);
  ASSERT_EQ(unsetenv("FAIRCLEAN_THREADS"), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
  // A malformed count is not silently replaced by the hardware default.
  // The threadsafe style re-executes the binary instead of forking a
  // process that may already run pool threads.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        setenv("FAIRCLEAN_THREADS", "four", 1);
        ThreadPool::DefaultThreadCount();
      },
      "FAIRCLEAN_THREADS must be a non-negative integer");
}

TEST(InvokeWithStatusCaptureTest, PassesStatusesAndCapturesExceptions) {
  EXPECT_TRUE(InvokeWithStatusCapture([]() { return Status::OK(); }).ok());
  Status failed = InvokeWithStatusCapture(
      []() { return Status::InvalidArgument("bad"); });
  EXPECT_EQ(failed.code(), StatusCode::kInvalidArgument);
  Status thrown = InvokeWithStatusCapture(
      []() -> Status { throw std::runtime_error("kaput"); });
  EXPECT_EQ(thrown.code(), StatusCode::kInternal);
  EXPECT_NE(thrown.message().find("kaput"), std::string::npos);
}

TEST(RunIndexedTest, ReturnsResultsInIndexOrder) {
  ThreadPool pool(4);
  std::vector<int> results =
      RunIndexed(&pool, 100, [](size_t i) { return static_cast<int>(i) * 2; });
  ASSERT_EQ(results.size(), 100u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i) * 2);
  }
}

TEST(RunIndexedTest, NullPoolRunsInline) {
  std::vector<size_t> results =
      RunIndexed(nullptr, 5, [](size_t i) { return i; });
  EXPECT_EQ(results, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(RunIndexedTest, DrainsAllTasksBeforeRethrowingTheFirstError) {
  ThreadPool pool(4);
  std::atomic<int> invoked{0};
  EXPECT_THROW(RunIndexed(&pool, 16,
                          [&invoked](size_t i) -> int {
                            ++invoked;
                            if (i == 3) throw std::runtime_error("boom");
                            return static_cast<int>(i);
                          }),
               std::runtime_error);
  // Every task ran: references captured by the callable stayed valid for
  // the whole fan-out even though one task failed.
  EXPECT_EQ(invoked.load(), 16);
}

}  // namespace
}  // namespace fairclean
