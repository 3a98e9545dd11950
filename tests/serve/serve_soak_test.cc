// Kill-and-restart soak of the advisor server (DESIGN.md §10): a faulted,
// loaded server is SIGKILLed mid-flight, restarted on the same cache
// directory, and must (a) leave zero quarantined (.corrupt) cache entries
// and (b) serve every cell with bytes identical to an unfaulted baseline
// run — atomic writes and per-repeat slice records mean a hard kill costs
// progress, never correctness.
//
// Unlike the in-process serve tests, this one exercises the real
// advisor_server binary: ctest passes its path as argv[1]
// ($<TARGET_FILE:advisor_server> in tests/CMakeLists.txt).

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/safe_io.h"
#include "obs/json_lite.h"
#include "serve/client.h"

namespace fairclean {
namespace serve {
namespace {

std::string g_server_binary;  // set by main() from argv[1]

const char* kCells[] = {
    "{\"op\":\"analyze\",\"id\":\"c0\",\"dataset\":\"german\","
    "\"error_type\":\"missing_values\",\"model\":\"log-reg\"}",
    "{\"op\":\"analyze\",\"id\":\"c1\",\"dataset\":\"german\","
    "\"error_type\":\"missing_values\",\"model\":\"knn\"}",
};

struct ServerProc {
  pid_t pid = -1;
  uint16_t port = 0;
  int stdout_fd = -1;
};

// Forks and execs advisor_server on an ephemeral port with the suite
// scaled down for test speed, scraping the bound port from its first
// stdout line. `faults` is a FAIRCLEAN_FAULTS spec ("" = unfaulted).
ServerProc SpawnServer(const std::string& cache_dir,
                       const std::string& faults) {
  ServerProc proc;
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) return proc;
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return proc;
  }
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    setenv("FAIRCLEAN_SAMPLE", "300", 1);
    setenv("FAIRCLEAN_REPEATS", "2", 1);
    setenv("FAIRCLEAN_FOLDS", "2", 1);
    setenv("FAIRCLEAN_CACHE_DIR", cache_dir.c_str(), 1);
    setenv("FAIRCLEAN_SERVE_QUEUE", "32", 1);
    // Telemetry plane under soak: the JSONL metrics export. A graceful
    // stop must flush a final metrics snapshot.
    const std::string metrics_path = cache_dir + "/metrics.jsonl";
    setenv("FAIRCLEAN_METRICS", metrics_path.c_str(), 1);
    if (faults.empty()) {
      unsetenv("FAIRCLEAN_FAULTS");
    } else {
      setenv("FAIRCLEAN_FAULTS", faults.c_str(), 1);
      setenv("FAIRCLEAN_FAULT_SEED", "7", 1);
    }
    ::execl(g_server_binary.c_str(), g_server_binary.c_str(), "--port", "0",
            static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(out_pipe[1]);
  proc.pid = pid;
  proc.stdout_fd = out_pipe[0];
  // First line: "listening on port <P>".
  std::string line;
  char ch;
  while (::read(out_pipe[0], &ch, 1) == 1 && ch != '\n') line += ch;
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "listening on port %u", &port) == 1) {
    proc.port = static_cast<uint16_t>(port);
  }
  return proc;
}

void KillServer(ServerProc* proc) {
  if (proc->pid < 0) return;
  ::kill(proc->pid, SIGKILL);
  int status = 0;
  ::waitpid(proc->pid, &status, 0);
  ::close(proc->stdout_fd);
  proc->pid = -1;
}

// Asks for a graceful exit; falls back to SIGKILL rather than hanging the
// test (an orphaned server would keep ctest's output pipe open forever).
void ShutdownServer(ServerProc* proc) {
  if (proc->pid < 0) return;
  AdvisorClient client("127.0.0.1", proc->port);
  client.CallWithRetry("{\"op\":\"shutdown\",\"id\":\"bye\"}");
  int status = 0;
  for (int i = 0; i < 1000; ++i) {
    if (::waitpid(proc->pid, &status, WNOHANG) == proc->pid) {
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << "server exit status " << status;
      ::close(proc->stdout_fd);
      proc->pid = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ADD_FAILURE() << "server did not exit after shutdown op";
  KillServer(proc);
}

struct CellAnswer {
  std::string cache_file;
  std::string sha256;
};

// Analyzes every cell against a serving process; fails the test if any
// cell cannot be answered.
std::map<std::string, CellAnswer> AnalyzeAll(uint16_t port) {
  std::map<std::string, CellAnswer> answers;
  AdvisorClient client("127.0.0.1", port);
  for (const char* line : kCells) {
    Result<AdvisorResponse> response = client.CallWithRetry(line);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    if (!response.ok()) continue;
    EXPECT_TRUE(response->ok()) << response->raw;
    if (!response->ok()) continue;
    CellAnswer answer;
    answer.cache_file = response->json.StringOr("cache_file", "");
    answer.sha256 = response->json.StringOr("sha256", "");
    answers[response->json.StringOr("cell", "")] = answer;
  }
  return answers;
}

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/serve_soak_" +
                    std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// A gracefully stopped server must leave a final flushed metrics snapshot:
// valid JSONL, with the accepted counter and the serve latency histogram
// both covering every analyze.
void ExpectFinalMetricsSnapshot(const std::string& cache_dir,
                                double min_accepted) {
  const std::string path = cache_dir + "/metrics.jsonl";
  Result<std::string> text = ReadFileToString(path);
  ASSERT_TRUE(text.ok()) << path << ": " << text.status().ToString();
  ASSERT_FALSE(text->empty()) << path;
  double accepted = -1.0;
  double latency_count = -1.0;
  size_t start = 0, line_no = 0;
  while (start < text->size()) {
    size_t end = text->find('\n', start);
    if (end == std::string::npos) end = text->size();
    std::string line = text->substr(start, end - start);
    start = end + 1;
    ++line_no;
    if (line.empty()) continue;
    obs::JsonValue value;
    std::string error;
    ASSERT_TRUE(obs::JsonValue::Parse(line, &value, &error))
        << path << ":" << line_no << ": " << error;
    const std::string name = value.StringOr("metric", "");
    // Each flush replaces the file wholesale, so this is the final state.
    if (name == "serve.requests_accepted") {
      accepted = value.NumberOr("value", -1.0);
    } else if (name == "serve.request_latency_s") {
      EXPECT_EQ(value.StringOr("type", ""), "histogram");
      latency_count = value.NumberOr("count", -1.0);
    }
  }
  EXPECT_GE(accepted, min_accepted) << path;
  EXPECT_GE(latency_count, min_accepted) << path;
}

TEST(ServeSoakTest, KillAndRestartLosesProgressNeverCorrectness) {
  ASSERT_FALSE(g_server_binary.empty())
      << "usage: serve_soak_test <path to advisor_server>";

  // Unfaulted baseline: the bytes every later run must reproduce.
  // Servers are always stopped before any ASSERT aborts the test: an
  // orphaned child inheriting our stderr would wedge ctest.
  std::string baseline_dir = FreshDir("baseline");
  ServerProc baseline = SpawnServer(baseline_dir, "");
  if (baseline.port == 0) {
    KillServer(&baseline);
    FAIL() << "baseline server did not report a port";
  }
  std::map<std::string, CellAnswer> expected = AnalyzeAll(baseline.port);
  ShutdownServer(&baseline);
  ASSERT_EQ(expected.size(), std::size(kCells));
  // Graceful stop flushed the telemetry plane's final snapshot.
  ExpectFinalMetricsSnapshot(baseline_dir, std::size(kCells));

  // Faulted run: flaky sockets and parse faults under concurrent load,
  // then a SIGKILL mid-flight.
  std::string soak_dir = FreshDir("soak");
  ServerProc faulted =
      SpawnServer(soak_dir, "socket_read:0.05,request_parse:0.05");
  if (faulted.port == 0) {
    KillServer(&faulted);
    FAIL() << "faulted server did not report a port";
  }
  std::vector<std::thread> load;
  for (int c = 0; c < 4; ++c) {
    load.emplace_back([port = faulted.port, c] {
      AdvisorClient client("127.0.0.1", port, /*seed=*/42 + c);
      BackoffOptions backoff;
      backoff.max_attempts = 2;
      backoff.base_ms = 10;
      for (int i = 0; i < 30; ++i) {
        // Failures are expected — faults are armed and the server dies
        // mid-loop. The point is what the cache looks like afterwards.
        client.CallWithRetry(kCells[i % std::size(kCells)], backoff);
      }
    });
  }
  // Early enough to usually land mid-computation (some slices written),
  // late enough that real work has started.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  KillServer(&faulted);
  for (std::thread& thread : load) thread.join();

  // Restart on the same cache directory: slices resume, caches verify.
  ServerProc restarted = SpawnServer(soak_dir, "");
  if (restarted.port == 0) {
    KillServer(&restarted);
    FAIL() << "restarted server did not report a port";
  }
  std::map<std::string, CellAnswer> served = AnalyzeAll(restarted.port);
  ShutdownServer(&restarted);
  ASSERT_EQ(served.size(), std::size(kCells));

  // (a) Nothing was quarantined: a hard kill must never leave a cache
  // entry that reads back corrupt.
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(soak_dir)) {
    EXPECT_EQ(entry.path().string().find(".corrupt"), std::string::npos)
        << "quarantined cache entry after restart: " << entry.path();
  }

  // (b) Byte identity with the unfaulted baseline, both as the advisor's
  // own digest and as raw completed-cell cache bytes on disk.
  for (const auto& [cell, baseline_answer] : expected) {
    ASSERT_TRUE(served.count(cell)) << cell;
    const CellAnswer& soak_answer = served.at(cell);
    EXPECT_EQ(soak_answer.sha256, baseline_answer.sha256) << cell;
    EXPECT_EQ(soak_answer.cache_file, baseline_answer.cache_file) << cell;
    if (baseline_answer.cache_file.empty()) continue;
    Result<std::string> baseline_bytes =
        ReadFileToString(baseline_dir + "/" + baseline_answer.cache_file);
    Result<std::string> soak_bytes =
        ReadFileToString(soak_dir + "/" + soak_answer.cache_file);
    ASSERT_TRUE(baseline_bytes.ok()) << baseline_answer.cache_file;
    ASSERT_TRUE(soak_bytes.ok()) << soak_answer.cache_file;
    EXPECT_EQ(*baseline_bytes, *soak_bytes) << cell;
  }
}

}  // namespace
}  // namespace serve
}  // namespace fairclean

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  if (argc > 1) fairclean::serve::g_server_binary = argv[1];
  return RUN_ALL_TESTS();
}
