// Fixed-size thread pool with one FIFO task queue — the substrate every
// pipeline stage runs on (corpus synthesis, per-binary analysis, footprint
// resolution) and the pool behind lapis_serve's connection handlers.
//
// Design:
//   * N logical threads: the constructor spawns N-1 workers; a thread that
//     waits (WaitAll / ParallelFor) runs queued tasks meanwhile, so
//     Executor(1) spawns nothing and executes every task on the waiting
//     caller — bit-for-bit the sequential pipeline.
//   * One queue under one mutex: tasks start in submission order. Until
//     some thread waits, at most N-1 Submit()ed tasks run at once — the
//     bound lapis_serve uses for its connection workers.
//   * Exceptions: the first exception thrown by a Submit()ed task is
//     captured and rethrown at the next WaitAll(). ParallelFor captures its
//     own first exception and rethrows it at its join.
//
// Determinism: scheduling is nondeterministic by nature; deterministic
// *output* comes from the reduction layer in parallel.h (shard results
// addressed by canonical index, merged in index order).

#ifndef LAPIS_SRC_RUNTIME_EXECUTOR_H_
#define LAPIS_SRC_RUNTIME_EXECUTOR_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lapis::runtime {

// Monotonic counters; a coherent snapshot is returned by Executor::stats().
struct ExecutorStats {
  size_t thread_count = 0;       // logical threads (workers + caller)
  uint64_t tasks_executed = 0;   // queued tasks run (Submit + ParallelFor)
  uint64_t steals = 0;           // always 0 (one shared queue); perfbench
                                 // still reports it as runtime.steals
};

class Executor {
 public:
  // thread_count == 0 picks DefaultJobs(); thread_count == 1 runs inline.
  explicit Executor(size_t thread_count = 0);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Appends a task to the queue; it never runs on the submitting thread
  // unless that thread later waits.
  void Submit(std::function<void()> fn);

  // Blocks until every queued or running task finished — including tasks
  // submitted by running tasks — executing queued tasks meanwhile.
  // Rethrows the first captured Submit() task exception, if any.
  void WaitAll();

  // Calls body(chunk_begin, chunk_end) over [begin, end) split into about
  // eight chunks per thread. The caller runs queued tasks until every chunk
  // finished; calls from inside a body or a task are fine. Rethrows the
  // first body exception.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t, size_t)>& body);

  size_t thread_count() const { return thread_count_; }
  ExecutorStats stats() const;

 private:
  // Runs queued tasks on the calling thread until done() holds, sleeping
  // while the queue is empty. `lock` holds mutex_; done() is read under it.
  template <typename Done>
  void HelpUntil(std::unique_lock<std::mutex>& lock, Done done);
  // Pops the front task and runs it with mutex_ released.
  void RunFront(std::unique_lock<std::mutex>& lock);
  void WorkerLoop();

  size_t thread_count_ = 1;

  mutable std::mutex mutex_;
  std::condition_variable cv_;  // queue grew, a task finished, or stopping
  std::deque<std::function<void()>> queue_;
  uint64_t unfinished_ = 0;  // queued + running tasks
  std::exception_ptr first_error_;
  bool stop_ = false;
  uint64_t tasks_executed_ = 0;

  // Last, so the workers start after, and are joined before, what they use.
  std::vector<std::thread> threads_;
};

// Thread count used when none is specified: the LAPIS_JOBS environment
// variable if set and positive, else hardware_concurrency() (min 1).
size_t DefaultJobs();

}  // namespace lapis::runtime

#endif  // LAPIS_SRC_RUNTIME_EXECUTOR_H_
