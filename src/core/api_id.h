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
#include <map>
#include <string>
#include <string_view>
#include <vector>

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
  friend bool operator<(const ApiId& a, const ApiId& b) {
    if (a.kind != b.kind) {
      return a.kind < b.kind;
    }
    return a.code < b.code;
  }
};

inline ApiId SyscallApi(uint32_t nr) { return ApiId{ApiKind::kSyscall, nr}; }
inline ApiId IoctlApi(uint32_t op) { return ApiId{ApiKind::kIoctlOp, op}; }
inline ApiId FcntlApi(uint32_t op) { return ApiId{ApiKind::kFcntlOp, op}; }
inline ApiId PrctlApi(uint32_t op) { return ApiId{ApiKind::kPrctlOp, op}; }

// Bidirectional string interner for pseudo-file paths and libc symbols.
class StringInterner {
 public:
  uint32_t Intern(std::string_view s);
  // Returns the id if present, or UINT32_MAX.
  uint32_t Find(std::string_view s) const;
  const std::string& NameOf(uint32_t id) const;
  size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::map<std::string, uint32_t, std::less<>> ids_;
};

}  // namespace lapis::core

#endif  // LAPIS_SRC_CORE_API_ID_H_
