// The host description every BENCH_*.json writer records next to its
// numbers, so a result file says which machine produced it.

#ifndef LAPIS_BENCH_BENCH_HOST_H_
#define LAPIS_BENCH_BENCH_HOST_H_

#include <string>

namespace lapis::bench {

// The `"host"` member of a BENCH_*.json object (CPU model, logical CPUs,
// kernel release, compiler, UTC date), indented two spaces and ending in
// ",\n".
std::string HostJson();

}  // namespace lapis::bench

#endif  // LAPIS_BENCH_BENCH_HOST_H_
