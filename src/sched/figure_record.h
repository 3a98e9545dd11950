#ifndef FAIRCLEAN_SCHED_FIGURE_RECORD_H_
#define FAIRCLEAN_SCHED_FIGURE_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/disparity.h"

namespace fairclean {
namespace sched {

/// Version of the persisted figure-panel record. It is part of both the
/// store key and the record body, so a format change never reads an old
/// record: the old key simply misses and the panel is recomputed.
constexpr int kFigureRecordVersion = 1;

/// Store key of one figure panel (DESIGN.md Section 11):
/// "figure:v<version>:" + DisparityArtifactKey, e.g.
/// "figure:v1:disparity:adult:single:s59". No cell-record name (a ".json"
/// cache file, a "slice:" or "class:" record) can take this form.
std::string FigureRecordKey(const std::string& dataset, bool intersectional,
                            uint64_t study_seed);

/// The persisted bytes of one panel: a one-line JSON object with the
/// panel's identity and every DisparityRow field, doubles as C99 hexfloat
/// strings so they read back bit for bit, followed by the Section 6
/// checksum footer.
std::string EncodeFigureRecord(const std::string& dataset,
                               bool intersectional,
                               const std::vector<DisparityRow>& rows);

/// Inverse of EncodeFigureRecord for the panel (dataset, intersectional).
/// InvalidArgument when the footer does not verify (truncation, bit rot),
/// the body does not parse, or the record describes another panel or
/// format version.
Result<std::vector<DisparityRow>> DecodeFigureRecord(
    const std::string& bytes, const std::string& dataset,
    bool intersectional);

}  // namespace sched
}  // namespace fairclean

#endif  // FAIRCLEAN_SCHED_FIGURE_RECORD_H_
