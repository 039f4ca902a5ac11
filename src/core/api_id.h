// API identity across the whole study.
//
// The paper treats "system APIs" broadly (§2): system calls, vectored
// system-call opcodes (ioctl/fcntl/prctl), pseudo-files under /proc, /sys
// and /dev, and libc exports. ApiId names any of them uniformly so the
// importance / completeness metrics apply to each family with one
// implementation.

#ifndef LAPIS_SRC_CORE_API_ID_H_
#define LAPIS_SRC_CORE_API_ID_H_

#include <cstdint>

#include "src/util/string_interner.h"

namespace lapis::core {

enum class ApiKind : uint8_t {
  kSyscall = 0,
  kIoctlOp = 1,
  kFcntlOp = 2,
  kPrctlOp = 3,
  kPseudoFile = 4,  // code = interned canonical path id
  kLibcFn = 5,      // code = interned symbol id
};

inline constexpr int kApiKindCount = 6;

const char* ApiKindName(ApiKind kind);

struct ApiId {
  ApiKind kind = ApiKind::kSyscall;
  uint32_t code = 0;

  // Stable total order / encoding (one int64 per API, e.g. a map key).
  int64_t Encode() const {
    return (static_cast<int64_t>(kind) << 32) | code;
  }
  static ApiId Decode(int64_t encoded) {
    return ApiId{static_cast<ApiKind>(encoded >> 32),
                 static_cast<uint32_t>(encoded & 0xffffffff)};
  }

  friend bool operator==(const ApiId& a, const ApiId& b) {
    return a.kind == b.kind && a.code == b.code;
  }
  // By kind, then code: one integer compare.
  friend bool operator<(const ApiId& a, const ApiId& b) {
    return a.Encode() < b.Encode();
  }
};

inline ApiId SyscallApi(uint32_t nr) { return ApiId{ApiKind::kSyscall, nr}; }
inline ApiId IoctlApi(uint32_t op) { return ApiId{ApiKind::kIoctlOp, op}; }
inline ApiId FcntlApi(uint32_t op) { return ApiId{ApiKind::kFcntlOp, op}; }
inline ApiId PrctlApi(uint32_t op) { return ApiId{ApiKind::kPrctlOp, op}; }

// Pseudo-file and libc codes index the study's two StringInterners
// (src/util/string_interner.h), named here for core's callers.
using ::lapis::StringInterner;

}  // namespace lapis::core

#endif  // LAPIS_SRC_CORE_API_ID_H_
