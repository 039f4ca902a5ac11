// Deterministic reduction layer over the FIFO thread pool (executor.h).
//
// Scheduling is nondeterministic; output determinism comes from addressing:
// every shard result lands at its canonical index, and merges fold shards
// in ascending index order. A pipeline built from ParallelMap + FoldInOrder
// is therefore bit-identical at any thread count — the property the study
// exports are tested for.

#ifndef LAPIS_SRC_RUNTIME_PARALLEL_H_
#define LAPIS_SRC_RUNTIME_PARALLEL_H_

#include <type_traits>
#include <utility>
#include <vector>

#include "src/runtime/executor.h"

namespace lapis::runtime {

// Computes fn(i) for i in [0, count) — in parallel when `executor` has
// more than one thread, inline otherwise — and returns the results in
// index order. R must be default-constructible and move-assignable; fn
// must not touch shared mutable state.
template <typename Fn>
auto ParallelMap(Executor* executor, size_t count, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, size_t>> {
  using R = std::invoke_result_t<Fn&, size_t>;
  static_assert(std::is_default_constructible_v<R>,
                "ParallelMap shard results must be default-constructible");
  std::vector<R> out(count);
  if (executor == nullptr || executor->thread_count() <= 1 || count <= 1) {
    for (size_t i = 0; i < count; ++i) {
      out[i] = fn(i);
    }
    return out;
  }
  executor->ParallelFor(0, count, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      out[i] = fn(i);
    }
  });
  return out;
}

// Canonical-order merge: fold(index, shard) over ascending indices. The
// deliberate sequential pass that makes sharded aggregation deterministic.
template <typename R, typename Fold>
void FoldInOrder(std::vector<R>& shards, Fold&& fold) {
  for (size_t i = 0; i < shards.size(); ++i) {
    fold(i, shards[i]);
  }
}

}  // namespace lapis::runtime

#endif  // LAPIS_SRC_RUNTIME_PARALLEL_H_
