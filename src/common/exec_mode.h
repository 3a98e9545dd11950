#ifndef FAIRCLEAN_COMMON_EXEC_MODE_H_
#define FAIRCLEAN_COMMON_EXEC_MODE_H_

#include <string>

#include "common/status.h"

namespace fairclean {

/// How much cross-cell / cross-grid-point work sharing the execution layers
/// are allowed to do. Every mode produces byte-identical suite reports and
/// cache records (DESIGN.md §8/§15); the ladder only trades recomputation
/// for reuse:
///
///   - kNaive: no sharing. Tuning re-materializes fold slices (and GBDT
///     presorts) per grid point, cells regenerate their dataset instead of
///     consuming the wave plan, and predict paths use the plain per-query /
///     per-row kernels.
///   - kShared: one-time materialization is cached and reused — per-tune
///     fold-data cache, per-fold GBDT global presort, and the wave planner's
///     per-(dataset, seed) shared plan.
///   - kFused: everything in kShared, plus batched kernels that score many
///     units per pass: the kNN tuning grid is evaluated from a single
///     top-max(k) sweep, kNN prediction packs the train panels once per
///     call, and GBDT prediction runs trees-outer over row blocks.
enum class ExecMode {
  kNaive,
  kShared,
  kFused,
};

/// Canonical lowercase token for the mode ("naive" / "shared" / "fused").
const char* ExecModeName(ExecMode mode);

/// Strict parse of a mode token. Anything but an exact lowercase match of a
/// known mode is an InvalidArgument naming the known modes.
Result<ExecMode> ParseExecMode(const std::string& token);

/// Resolves FAIRCLEAN_EXEC_MODE (default: fused). Unknown tokens are a
/// hard error naming the known modes.
Result<ExecMode> ExecModeFromEnv();

}  // namespace fairclean

#endif  // FAIRCLEAN_COMMON_EXEC_MODE_H_
