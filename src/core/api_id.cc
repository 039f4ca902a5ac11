#include "src/core/api_id.h"

namespace lapis::core {

const char* ApiKindName(ApiKind kind) {
  switch (kind) {
    case ApiKind::kSyscall:
      return "syscall";
    case ApiKind::kIoctlOp:
      return "ioctl-op";
    case ApiKind::kFcntlOp:
      return "fcntl-op";
    case ApiKind::kPrctlOp:
      return "prctl-op";
    case ApiKind::kPseudoFile:
      return "pseudo-file";
    case ApiKind::kLibcFn:
      return "libc-fn";
  }
  return "?";
}

}  // namespace lapis::core
