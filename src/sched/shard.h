#ifndef FAIRCLEAN_SCHED_SHARD_H_
#define FAIRCLEAN_SCHED_SHARD_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace fairclean {
namespace sched {

/// Record-store key of a cell's persisted classification (written next to
/// the cell's cache record, read back on cache hits so fresh, warm and
/// resumed runs report identical classes).
std::string ClassKeyFor(const std::string& cache_key);

/// Mass-run classification of one produced cell, precedence highest first:
/// a cell that ever hit the time budget stays budget-exceeded until a later
/// attempt completes it; skips outrank retries outrank a clean pass.
/// Nothing produces kStolen any more (it marked a cell taken over from a
/// dead sibling process); it stays so that class records already in caches
/// still parse and the report's "stolen" count keeps its key.
enum class CellClass {
  kStolen = 0,
  kBudgetExceeded = 1,
  kSkipped = 2,
  kDegenerateRetry = 3,
  kPass = 4,
};

/// Stable wire name: "stolen", "budget_exceeded", "skipped",
/// "degenerate_retry", "pass".
const char* CellClassName(CellClass cls);
Result<CellClass> CellClassFromName(const std::string& name);

/// Per-class cell totals for the report's "classifier" block.
struct ClassifierCounts {
  uint64_t pass = 0;
  uint64_t degenerate_retry = 0;
  uint64_t skipped = 0;
  uint64_t budget_exceeded = 0;
  uint64_t stolen = 0;

  void Add(CellClass cls);
  /// {"pass":N,"degenerate_retry":N,"skipped":N,"budget_exceeded":N,
  ///  "stolen":N} — fixed key order, deterministic bytes.
  std::string ToJson() const;
};

}  // namespace sched
}  // namespace fairclean

#endif  // FAIRCLEAN_SCHED_SHARD_H_
