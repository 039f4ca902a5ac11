#include "src/runtime/executor.h"

#include <algorithm>
#include <utility>

#include "src/util/env.h"

namespace lapis::runtime {

Executor::Executor(size_t thread_count) {
  if (thread_count == 0) {
    thread_count = DefaultJobs();
  }
  // Cap absurd requests (e.g. -1 coerced to size_t) instead of trying to
  // spawn billions of threads.
  constexpr size_t kMaxThreads = 512;
  thread_count_ = std::clamp<size_t>(thread_count, 1, kMaxThreads);
  threads_.reserve(thread_count_ - 1);
  for (size_t i = 1; i < thread_count_; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& thread : threads_) {
    thread.join();
  }
}

void Executor::EnqueuedLocked(size_t count) {
  unfinished_ += count;
  max_queue_depth_ = std::max<uint64_t>(max_queue_depth_, queue_.size());
}

void Executor::RunFront(std::unique_lock<std::mutex>& lock) {
  std::function<void()> task = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  std::exception_ptr thrown;
  try {
    task();
  } catch (...) {
    thrown = std::current_exception();
  }
  task = nullptr;  // release captures before retaking the lock
  lock.lock();
  if (thrown && !first_error_) {
    first_error_ = thrown;
  }
  ++tasks_executed_;
  --unfinished_;
  cv_.notify_all();
}

template <typename Done>
void Executor::HelpUntil(std::unique_lock<std::mutex>& lock, Done done) {
  for (;;) {
    cv_.wait(lock, [&] { return done() || !queue_.empty(); });
    if (done()) {
      return;
    }
    RunFront(lock);
  }
}

void Executor::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      return;  // stopping, and nothing is left to drain
    }
    RunFront(lock);
  }
}

void Executor::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(fn));
    EnqueuedLocked(1);
  }
  cv_.notify_all();
}

void Executor::WaitAll() {
  std::unique_lock<std::mutex> lock(mutex_);
  HelpUntil(lock, [this] { return unfinished_ == 0; });
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void Executor::ParallelFor(size_t begin, size_t end,
                           const std::function<void(size_t, size_t)>& body) {
  if (end <= begin) {
    return;
  }
  const size_t n = end - begin;
  const size_t grain = std::max<size_t>(1, n / (thread_count_ * 8));
  const size_t chunks = (n + grain - 1) / grain;
  if (thread_count_ <= 1 || chunks <= 1) {
    // Same chunk boundaries as the parallel path, executed in order, so
    // the body observes identical (begin, end) pairs at any thread count.
    for (size_t c = 0; c < chunks; ++c) {
      const size_t chunk_begin = begin + c * grain;
      body(chunk_begin, std::min(end, chunk_begin + grain));
    }
    return;
  }

  size_t remaining = chunks;  // guarded by mutex_
  std::exception_ptr error;   // first body exception; guarded by mutex_
  std::unique_lock<std::mutex> lock(mutex_);
  for (size_t c = 0; c < chunks; ++c) {
    const size_t chunk_begin = begin + c * grain;
    const size_t chunk_end = std::min(end, chunk_begin + grain);
    queue_.push_back(
        [this, &body, &remaining, &error, chunk_begin, chunk_end] {
          std::exception_ptr thrown;
          try {
            body(chunk_begin, chunk_end);
          } catch (...) {
            thrown = std::current_exception();
          }
          std::lock_guard<std::mutex> guard(mutex_);
          if (thrown && !error) {
            error = thrown;
          }
          --remaining;
        });
  }
  EnqueuedLocked(chunks);
  cv_.notify_all();
  HelpUntil(lock, [&remaining] { return remaining == 0; });
  if (error) {
    lock.unlock();
    std::rethrow_exception(error);
  }
}

ExecutorStats Executor::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ExecutorStats s;
  s.thread_count = thread_count_;
  s.tasks_executed = tasks_executed_;
  s.max_queue_depth = max_queue_depth_;
  return s;
}

size_t DefaultJobs() {
  size_t env = EnvSizeOr("LAPIS_JOBS", 0);
  if (env > 0) {
    return env;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace lapis::runtime
