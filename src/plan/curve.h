// Partial-support curves: weighted completeness as a function of how many
// of a vectored family's sub-ops (or any kind's APIs) are supported, in
// importance order; bench_ioctl_partial_support prints the §2 "ioctl
// cannot be half-implemented" sweep from it.

#ifndef LAPIS_SRC_PLAN_CURVE_H_
#define LAPIS_SRC_PLAN_CURVE_H_

#include <cstddef>
#include <vector>

#include "src/core/dataset.h"

namespace lapis::plan {

struct CurvePoint {
  size_t supported_count = 0;           // top-K APIs of the kind supported
  double weighted_completeness = 0.0;   // evaluated on that kind only
};

// For each checkpoint K (clamped to the ranked universe size), the weighted
// completeness of a system supporting exactly the K most important APIs of
// `kind` — every other kind is assumed fully supported. `universe` may add
// zero-importance APIs and may contain duplicates (they are collapsed by
// the ranking). Checkpoints are evaluated in the given order; points for
// equal/clamped checkpoints repeat the same completeness, so a sorted
// checkpoint list yields a monotonically non-decreasing curve.
std::vector<CurvePoint> PartialSupportCurve(
    const core::StudyDataset& dataset, core::ApiKind kind,
    const std::vector<size_t>& checkpoints,
    const std::vector<core::ApiId>& universe = {});

// The checkpoint schedule bench_ioctl_partial_support prints (dense around
// the 52-opcode universal block).
const std::vector<size_t>& IoctlCurveCheckpoints();

}  // namespace lapis::plan

#endif  // LAPIS_SRC_PLAN_CURVE_H_
