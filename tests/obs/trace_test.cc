#include "obs/trace.h"

#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/safe_io.h"
#include "common/thread_pool.h"
#include "obs/json_lite.h"

namespace fairclean {
namespace obs {
namespace {

std::string TracePath(const char* name) {
  return testing::TempDir() + "/trace_" + name + ".json";
}

/// Flushes the tracer to `path` and parses the file; the trace must always
/// be valid JSON with a traceEvents array.
JsonValue LoadTrace(const std::string& path) {
  Tracer::Global().Flush();
  Result<std::string> text = ReadFileToString(path);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  JsonValue root;
  std::string error;
  EXPECT_TRUE(JsonValue::Parse(text.ok() ? *text : "null", &root, &error))
      << error;
  EXPECT_NE(root.Find("traceEvents"), nullptr);
  return root;
}

const JsonValue* FindEvent(const JsonValue& root, const std::string& name) {
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr) return nullptr;
  for (const JsonValue& event : events->array_items) {
    if (event.StringOr("name", "") == name) return &event;
  }
  return nullptr;
}

class TraceTest : public testing::Test {
 protected:
  void TearDown() override {
    Tracer::Global().Disable();
    if (!path_.empty()) std::filesystem::remove(path_);
  }

  void EnableTo(const char* name) {
    path_ = TracePath(name);
    std::filesystem::remove(path_);
    Tracer::Global().Enable(path_);
  }

  std::string path_;
};

TEST_F(TraceTest, DisabledSpanRecordsNothing) {
  ASSERT_FALSE(TraceEnabled());
  bool name_materialized = false;
  {
    TraceSpan span("test", [&] {
      name_materialized = true;
      return std::string("never");
    });
  }
  EXPECT_FALSE(name_materialized);
}

TEST_F(TraceTest, SpanRoundTripsThroughJson) {
  EnableTo("roundtrip");
  ASSERT_TRUE(TraceEnabled());
  { TraceSpan span("test", "outer span \"quoted\" \\ name"); }
  JsonValue root = LoadTrace(path_);
  const JsonValue* event = FindEvent(root, "outer span \"quoted\" \\ name");
  ASSERT_NE(event, nullptr);
  EXPECT_EQ(event->StringOr("cat", ""), "test");
  EXPECT_EQ(event->StringOr("ph", ""), "X");
  EXPECT_GE(event->NumberOr("dur", -1.0), 0.0);
  EXPECT_GE(event->NumberOr("ts", -1.0), 0.0);
}

TEST_F(TraceTest, NestedSpansAreContainedInParent) {
  EnableTo("nested");
  {
    TraceSpan outer("test", "nest outer");
    TraceSpan inner("test", "nest inner");
  }
  JsonValue root = LoadTrace(path_);
  const JsonValue* outer = FindEvent(root, "nest outer");
  const JsonValue* inner = FindEvent(root, "nest inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  double outer_ts = outer->NumberOr("ts", -1);
  double outer_end = outer_ts + outer->NumberOr("dur", 0);
  double inner_ts = inner->NumberOr("ts", -1);
  double inner_end = inner_ts + inner->NumberOr("dur", 0);
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_end, outer_end);
  // Same thread: nested spans share the parent's tid.
  EXPECT_EQ(inner->NumberOr("tid", -1), outer->NumberOr("tid", -2));
}

TEST_F(TraceTest, InstantEventCarriesScope) {
  EnableTo("instant");
  Tracer::Global().RecordInstant("fault", "fault:cache_write");
  JsonValue root = LoadTrace(path_);
  const JsonValue* event = FindEvent(root, "fault:cache_write");
  ASSERT_NE(event, nullptr);
  EXPECT_EQ(event->StringOr("ph", ""), "i");
  EXPECT_EQ(event->StringOr("s", ""), "t");
}

TEST_F(TraceTest, ConcurrentSpansFromPoolWorkersGetDistinctNamedTids) {
  EnableTo("concurrent");
  constexpr size_t kThreads = 4;
  constexpr size_t kSpansPerTask = 25;
  {
    ThreadPool pool(kThreads);
    // One task per worker, each blocking until every worker has one, so
    // all four threads are guaranteed to trace (a fast worker could
    // otherwise drain the whole queue alone).
    std::atomic<size_t> started{0};
    std::vector<std::future<void>> futures;
    for (size_t task = 0; task < kThreads; ++task) {
      futures.push_back(pool.Submit([task, &started] {
        started.fetch_add(1);
        while (started.load() < kThreads) std::this_thread::yield();
        for (size_t i = 0; i < kSpansPerTask; ++i) {
          TraceSpan span("test", [task] {
            return "concurrent t" + std::to_string(task);
          });
        }
      }));
    }
    for (auto& future : futures) future.get();
  }
  JsonValue root = LoadTrace(path_);
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  size_t spans = 0;
  std::set<double> tids;
  std::set<std::string> worker_names;
  for (const JsonValue& event : events->array_items) {
    std::string name = event.StringOr("name", "");
    if (event.StringOr("ph", "") == "X" &&
        name.rfind("concurrent t", 0) == 0) {
      ++spans;
      tids.insert(event.NumberOr("tid", -1));
    }
    if (event.StringOr("ph", "") == "M" && name == "thread_name") {
      const JsonValue* args = event.Find("args");
      ASSERT_NE(args, nullptr);
      std::string thread_name = args->StringOr("name", "");
      if (thread_name.rfind("worker-", 0) == 0) {
        worker_names.insert(thread_name);
      }
    }
  }
  EXPECT_EQ(spans, kThreads * kSpansPerTask);
  // Every pool worker traced at least once and got its own tid + name.
  EXPECT_GE(tids.size(), 2u);
  EXPECT_GE(worker_names.size(), tids.size());
}

TEST_F(TraceTest, DisableStopsRecordingAndClearsPath) {
  EnableTo("disable");
  { TraceSpan span("test", "before disable"); }
  Tracer::Global().Disable();
  EXPECT_FALSE(TraceEnabled());
  EXPECT_EQ(Tracer::Global().path(), "");
  // The file written by Disable's flush still holds the earlier span.
  Result<std::string> text = ReadFileToString(path_);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("before disable"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace fairclean
