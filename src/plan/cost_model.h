// Per-API implementation cost model for the support planner (Loupe-style:
// an API can be fully implemented, faked with a plausible success, stubbed
// with -ENOSYS, or skipped entirely).
//
// Default costs derive from the API kind (a syscall is more work than a
// libc shim) and, for vectored sub-ops (ioctl/fcntl/prctl), from the
// family's used breadth: the demultiplexer is built once, so families with
// many exercised sub-ops amortize the setup surcharge across them. Every
// number is overridable from a TSV file (see LoadCostOverridesTsv).

#ifndef LAPIS_SRC_PLAN_COST_MODEL_H_
#define LAPIS_SRC_PLAN_COST_MODEL_H_

#include <array>
#include <cstdint>
#include <istream>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "src/core/api_id.h"
#include "src/util/status.h"

namespace lapis::plan {

// How fully an API is supported, ordered by ambition. The planner picks the
// *cheapest sufficient* action per API (evidence.h decides sufficiency).
enum class SupportAction : uint8_t {
  kSkip = 0,  // leave unimplemented (only for APIs no package needs)
  kStub = 1,  // return -ENOSYS; adequate for claimed-but-never-exercised
  kFake = 2,  // return plausible success; adequate for most vectored sub-ops
  kFull = 3,  // real implementation
};

inline constexpr int kSupportActionCount = 4;

const char* ActionName(SupportAction action);
std::optional<SupportAction> ParseAction(std::string_view name);

class CostModel {
 public:
  // The documented defaults (README "cost-model TSV" section).
  static CostModel Defaults();

  // Cost of taking `action` on `api`. `family_breadth` is the number of
  // distinct used sub-ops of the API's vectored family (ignored for
  // non-vectored kinds); larger families amortize the demux surcharge.
  double ActionCost(core::ApiId api, SupportAction action,
                    size_t family_breadth) const;

  // ---- Override surface (TSV loader + tests) ----
  // Kind-wide cost of one action (full/stub/fake) for every API of `kind`.
  void SetKindActionCost(core::ApiKind kind, SupportAction action,
                         double cost);
  // Exact per-API cost for one action (strongest override).
  void SetApiActionCost(core::ApiId api, SupportAction action, double cost);

  double stub_cost() const { return stub_cost_; }

 private:
  CostModel() = default;

  // Full-implementation base cost per ApiKind.
  std::array<double, core::kApiKindCount> full_base_{};
  // Demux setup surcharge split across a vectored family's used breadth.
  double demux_surcharge_ = 8.0;
  double stub_cost_ = 1.0;
  double fake_divisor_ = 3.0;  // fake = full / fake_divisor (min stub_cost)

  // (kind, action) -> cost; overrides the derived defaults.
  std::map<std::pair<uint8_t, uint8_t>, double> kind_action_;
  // (ApiId::Encode(), action) -> cost; overrides everything.
  std::map<std::pair<int64_t, uint8_t>, double> api_action_;
};

// Parses cost overrides from TSV. Grammar (tab- or space-separated,
// '#' comments):
//
//   <kind> <api> <action> <cost>
//
// kind:   syscall | ioctl | fcntl | prctl | pseudo | libc
// api:    '*' (kind-wide), a syscall name, a decimal/0x numeral for
//         vectored opcodes, or a pseudo-file path / libc symbol
// action: full | stub | fake
// cost:   non-negative decimal
//
// Unknown syscall names and malformed lines are errors; pseudo-file paths
// and libc symbols absent from the study's interners are ignored (an API
// no package uses never enters a plan, so its cost is irrelevant).
Status LoadCostOverridesTsv(std::istream& in,
                            const core::StringInterner& path_interner,
                            const core::StringInterner& libc_interner,
                            CostModel* model);

}  // namespace lapis::plan

#endif  // LAPIS_SRC_PLAN_COST_MODEL_H_
