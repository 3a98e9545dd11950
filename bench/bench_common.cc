#include "bench/bench_common.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/safe_io.h"
#include "common/strings.h"
#include "obs/json_lite.h"

namespace fairclean {
namespace bench {

BenchStats StatsFromSamples(std::vector<double> samples) {
  BenchStats stats;
  stats.iters = samples.size();
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  stats.median = n % 2 == 1
                     ? samples[n / 2]
                     : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  size_t rank = (n * 95 + 99) / 100;  // ceil(0.95 * n), nearest-rank
  stats.p95 = samples[std::min(rank, n) - 1];
  return stats;
}

Result<BenchStats> RunForkedBench(
    const std::string& label, size_t iters,
    const std::function<std::function<void()>()>& make_body) {
  if (iters == 0) return Status::InvalidArgument("iters must be positive");
  int fds[2];
  if (pipe(fds) != 0) {
    return Status::Internal("pipe failed for bench " + label);
  }
  // The child inherits stdio buffers; flush so its /dev/null redirect
  // cannot replay half-written parent output.
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal("fork failed for bench " + label);
  }
  if (pid == 0) {
    close(fds[0]);
    // The body's console output (driver narration, tables) would shred the
    // bench table; the pipe carries the measurements.
    int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      dup2(devnull, STDOUT_FILENO);
      close(devnull);
    }
    std::function<void()> body = make_body();
    std::vector<double> seconds(iters, 0.0);
    for (size_t i = 0; i < iters; ++i) {
      auto start = std::chrono::steady_clock::now();
      body();
      seconds[i] = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    }
    const char* bytes = reinterpret_cast<const char*>(seconds.data());
    size_t remaining = iters * sizeof(double);
    while (remaining > 0) {
      ssize_t written = write(fds[1], bytes, remaining);
      if (written <= 0) _exit(2);
      bytes += written;
      remaining -= static_cast<size_t>(written);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::vector<double> seconds(iters, 0.0);
  char* bytes = reinterpret_cast<char*>(seconds.data());
  size_t wanted = iters * sizeof(double);
  size_t got = 0;
  while (got < wanted) {
    ssize_t n = read(fds[0], bytes + got, wanted - got);
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  int wstatus = 0;
  if (waitpid(pid, &wstatus, 0) != pid) {
    return Status::Internal("waitpid failed for bench " + label);
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal(StrFormat(
        "bench %s child failed (%s %d)", label.c_str(),
        WIFSIGNALED(wstatus) ? "signal" : "exit",
        WIFSIGNALED(wstatus) ? WTERMSIG(wstatus) : WEXITSTATUS(wstatus)));
  }
  if (got != wanted) {
    return Status::Internal(StrFormat(
        "bench %s child sent %zu of %zu sample bytes", label.c_str(), got,
        wanted));
  }
  return StatsFromSamples(std::move(seconds));
}

Status WriteKernelStatsJson(const std::string& path,
                            const std::map<std::string, double>& ops,
                            const std::map<std::string, double>& p95,
                            const std::map<std::string, size_t>& iters) {
  std::string body = "{\"ops\":{";
  bool first = true;
  for (const auto& [name, value] : ops) {
    body += StrFormat("%s\"%s\":%.9g", first ? "" : ",",
                      obs::JsonEscape(name).c_str(), value);
    first = false;
  }
  body += "},\"p95\":{";
  first = true;
  for (const auto& [name, value] : p95) {
    body += StrFormat("%s\"%s\":%.9g", first ? "" : ",",
                      obs::JsonEscape(name).c_str(), value);
    first = false;
  }
  body += "},\"iters\":{";
  first = true;
  for (const auto& [name, value] : iters) {
    body += StrFormat("%s\"%s\":%zu", first ? "" : ",",
                      obs::JsonEscape(name).c_str(), value);
    first = false;
  }
  body += "}}\n";
  return WriteFileAtomic(path, body);
}

}  // namespace bench
}  // namespace fairclean
