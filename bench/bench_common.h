#ifndef FAIRCLEAN_BENCH_BENCH_COMMON_H_
#define FAIRCLEAN_BENCH_BENCH_COMMON_H_

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace fairclean {
namespace bench {

/// Order statistics of one benchmark's per-iteration wall-clock samples,
/// in seconds.
struct BenchStats {
  size_t iters = 0;
  double median = 0.0;  ///< p50 (midpoint average for even sample counts).
  double p95 = 0.0;     ///< nearest-rank p95 (the max for small samples).
};

/// Sorts `samples` and reduces them to {iters, median, p95}. Zero samples
/// yield all-zero stats.
BenchStats StatsFromSamples(std::vector<double> samples);

/// Runs one benchmark body in a forked child and returns the order
/// statistics of its per-iteration wall-clock times.
///
/// The child calls `make_body()` once (untimed setup: synthesize data,
/// encode features, ...), times `iters` calls of the returned closure,
/// streams the raw seconds back over a pipe and _exit(0)s. Process
/// isolation is the point: each sample starts from a cold process (no
/// warmed allocator or shared thread pool from a previous case), and a
/// body that spawns its own pools or aborts cannot poison the parent or
/// the remaining cases.
///
/// Fork safety: call only while the parent is still single-threaded —
/// i.e. before google-benchmark or any ThreadPool fan-out runs in the
/// parent process.
Result<BenchStats> RunForkedBench(
    const std::string& label, size_t iters,
    const std::function<std::function<void()>()>& make_body);

/// Writes the kernel-bench JSON:
///   {"ops":{"<op>":<median seconds>,...},
///    "p95":{"<op>":<seconds>,...},
///    "iters":{"<op>":<count>,...}}
/// Atomic write via the checksummed-IO temp+rename path.
Status WriteKernelStatsJson(const std::string& path,
                            const std::map<std::string, double>& ops,
                            const std::map<std::string, double>& p95,
                            const std::map<std::string, size_t>& iters);

}  // namespace bench
}  // namespace fairclean

#endif  // FAIRCLEAN_BENCH_BENCH_COMMON_H_
