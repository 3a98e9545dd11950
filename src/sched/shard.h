#ifndef FAIRCLEAN_SCHED_SHARD_H_
#define FAIRCLEAN_SCHED_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sched/suite_spec.h"

namespace fairclean {
namespace sched {

/// How a suite run coordinates with sibling processes over one cache dir
/// (DESIGN.md Section 16).
enum class ShardMode {
  kNone,   ///< single process: the historical RunSuite path
  kClaim,  ///< --shard-claim i/N: work stealing through lease records
};

const char* ShardModeName(ShardMode mode);

/// One process's slice of a sharded run. `index` is 0-based internally;
/// the CLI syntax "i/N" is 1-based (shard 1 of 4 = index 0).
struct ShardSpec {
  ShardMode mode = ShardMode::kNone;
  size_t index = 0;
  size_t count = 1;

  bool active() const { return mode != ShardMode::kNone; }
  /// "shard-1/4" (1-based), used for trace tags and claim owner labels.
  std::string Label() const;
};

/// Parses the 1-based "i/N" CLI syntax (i in [1, N], N >= 1) into a spec
/// with the given mode.
Result<ShardSpec> ParseShardSpec(ShardMode mode, const std::string& text);

/// Lease-store key of one cell's claim. Distinct namespace from cache
/// records on purpose: claims live in the LeaseStore (flat files under
/// <cache_dir>/claims), never in the artifact cache or ArtifactStore, so
/// they cannot leak into artifact-reuse counters or cache-byte comparisons.
std::string ClaimKeyFor(const CellKey& cell);

/// Artifact-store key of a cell's persisted classification (written next to the
/// cell's cache record, read back on cache hits so fresh, warm, resumed,
/// and merged runs report identical classes).
std::string ClassKeyFor(const std::string& cache_key);

/// Mass-run classification of one produced cell, precedence highest first:
/// a stolen cell stays stolen however it finished; a cell that ever hit
/// the time budget stays budget-exceeded until a later attempt completes
/// it; skips outrank retries outrank a clean pass.
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
