// Unit tests for the FIFO thread pool and the deterministic reduction
// layer: submission order, the worker-count concurrency bound, exception
// propagation, nested ParallelFor, and counter sanity.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/executor.h"
#include "src/runtime/parallel.h"
#include "src/runtime/stage_stats.h"
#include "src/util/env.h"

namespace lapis::runtime {
namespace {

TEST(ExecutorTest, SingleThreadRunsInline) {
  Executor executor(1);
  EXPECT_EQ(executor.thread_count(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  executor.Submit([&] { ran_on = std::this_thread::get_id(); });
  executor.WaitAll();
  EXPECT_EQ(ran_on, caller);
  EXPECT_EQ(executor.stats().tasks_executed, 1u);
}

TEST(ExecutorTest, ZeroPicksDefaultJobs) {
  Executor executor(0);
  EXPECT_GE(executor.thread_count(), 1u);
}

TEST(ExecutorTest, AbsurdThreadCountIsClamped) {
  // E.g. -1 coerced through size_t must not try to reserve 2^64 slots.
  Executor executor(static_cast<size_t>(-1));
  EXPECT_LE(executor.thread_count(), 512u);
  std::atomic<bool> ran{false};
  executor.Submit([&ran] { ran = true; });
  executor.WaitAll();
  EXPECT_TRUE(ran.load());
}

TEST(ExecutorTest, ParallelForCoversEveryIndexOnce) {
  for (size_t jobs : {1, 2, 4, 8}) {
    Executor executor(jobs);
    constexpr size_t kCount = 10000;
    std::vector<std::atomic<uint32_t>> hits(kCount);
    executor.ParallelFor(0, kCount, [&hits](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "index " << i << " jobs " << jobs;
    }
  }
}

TEST(ExecutorTest, ParallelForEmptyAndSingletonRanges) {
  Executor executor(4);
  size_t calls = 0;
  executor.ParallelFor(5, 5, [&calls](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  std::atomic<size_t> total{0};
  executor.ParallelFor(3, 4, [&total](size_t begin, size_t end) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), 1u);
}

TEST(ExecutorTest, SubmitExceptionRethrownAtWaitAll) {
  for (size_t jobs : {1, 4}) {
    Executor executor(jobs);
    executor.Submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(executor.WaitAll(), std::runtime_error);
    // The error is consumed: the pool keeps working afterwards.
    std::atomic<bool> ran{false};
    executor.Submit([&ran] { ran = true; });
    executor.WaitAll();
    EXPECT_TRUE(ran.load());
  }
}

TEST(ExecutorTest, ParallelForExceptionRethrownAtJoin) {
  for (size_t jobs : {1, 4}) {
    Executor executor(jobs);
    EXPECT_THROW(
        executor.ParallelFor(0, 100,
                             [](size_t begin, size_t) {
                               if (begin >= 50) {
                                 throw std::logic_error("chunk failed");
                               }
                             }),
        std::logic_error);
    // A failed ParallelFor leaves the pool reusable.
    std::atomic<size_t> total{0};
    executor.ParallelFor(0, 10, [&total](size_t begin, size_t end) {
      total.fetch_add(end - begin);
    });
    EXPECT_EQ(total.load(), 10u);
  }
}

TEST(ExecutorTest, NestedParallelFor) {
  for (size_t jobs : {1, 4}) {
    Executor executor(jobs);
    constexpr size_t kOuter = 16;
    constexpr size_t kInner = 64;
    std::vector<std::atomic<uint32_t>> hits(kOuter * kInner);
    executor.ParallelFor(0, kOuter, [&](size_t obegin, size_t oend) {
      for (size_t o = obegin; o < oend; ++o) {
        executor.ParallelFor(0, kInner, [&, o](size_t ibegin, size_t iend) {
          for (size_t i = ibegin; i < iend; ++i) {
            hits[o * kInner + i].fetch_add(1);
          }
        });
      }
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "slot " << i << " jobs " << jobs;
    }
  }
}

TEST(ExecutorTest, StatsCountersAreCoherent) {
  Executor executor(4);
  constexpr size_t kTasks = 200;
  std::atomic<size_t> ran{0};
  for (size_t i = 0; i < kTasks; ++i) {
    executor.Submit([&ran] { ran.fetch_add(1); });
  }
  executor.WaitAll();
  ExecutorStats stats = executor.stats();
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(stats.thread_count, 4u);
  EXPECT_EQ(stats.tasks_executed, kTasks);
  EXPECT_EQ(stats.steals, 0u);
}

TEST(ExecutorTest, ParallelForBodiesRunOnTwoThreads) {
  // Each chunk waits, up to a shared deadline, for a second thread to join
  // in, so a pool that leaves the work to one thread fails within seconds.
  std::mutex mutex;
  std::condition_variable joined;
  std::set<std::thread::id> threads;
  Executor executor(2);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  executor.ParallelFor(0, 64, [&](size_t, size_t) {
    std::unique_lock<std::mutex> lock(mutex);
    threads.insert(std::this_thread::get_id());
    joined.notify_all();
    joined.wait_until(lock, deadline, [&] { return threads.size() >= 2; });
  });
  EXPECT_EQ(threads.size(), 2u);
}

TEST(ExecutorTest, SubmittedTasksRunInOrderOnTheWorker) {
  constexpr size_t kTasks = 200;
  std::mutex mutex;
  std::vector<size_t> order;
  std::set<std::thread::id> ran_on;
  std::atomic<size_t> done{0};
  Executor executor(2);  // one worker
  for (size_t i = 0; i < kTasks; ++i) {
    executor.Submit([&, i] {
      {
        std::lock_guard<std::mutex> lock(mutex);
        order.push_back(i);
        ran_on.insert(std::this_thread::get_id());
      }
      done.fetch_add(1);
    });
  }
  // Let the worker drain the queue alone: WaitAll would make this thread
  // run tasks too.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < kTasks && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  executor.WaitAll();
  std::vector<size_t> expected(kTasks);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
  ASSERT_EQ(ran_on.size(), 1u);
  EXPECT_NE(*ran_on.begin(), std::this_thread::get_id());
}

TEST(ExecutorTest, AtMostWorkerCountSubmittedTasksRunUntilSomeoneWaits) {
  constexpr size_t kTasks = 6;
  std::mutex mutex;
  std::condition_variable changed;
  bool release = false;
  size_t started = 0;
  size_t running = 0;
  size_t peak = 0;
  Executor executor(3);  // two workers
  for (size_t i = 0; i < kTasks; ++i) {
    executor.Submit([&] {
      std::unique_lock<std::mutex> lock(mutex);
      ++started;
      peak = std::max(peak, ++running);
      changed.notify_all();
      changed.wait_for(lock, std::chrono::seconds(10), [&] { return release; });
      --running;
    });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    EXPECT_TRUE(changed.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return started >= 2; }));
  }
  // Long enough for a third task to start if anything would run it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(started, 2u);
    EXPECT_EQ(peak, 2u);
    release = true;
  }
  changed.notify_all();
  executor.WaitAll();
  EXPECT_EQ(started, kTasks);
}

TEST(ExecutorTest, WaitAllCoversTasksSubmittedByTasks) {
  for (size_t jobs : {1, 4}) {
    Executor executor(jobs);
    std::atomic<size_t> leaves{0};
    for (int i = 0; i < 8; ++i) {
      executor.Submit([&executor, &leaves] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        for (int j = 0; j < 8; ++j) {
          executor.Submit([&leaves] { leaves.fetch_add(1); });
        }
      });
    }
    executor.WaitAll();
    EXPECT_EQ(leaves.load(), 64u) << "jobs " << jobs;
  }
}

TEST(ExecutorTest, ParallelForInsideSubmittedTaskCompletes) {
  for (size_t jobs : {1, 2, 4}) {
    Executor executor(jobs);
    std::atomic<size_t> total{0};
    for (int t = 0; t < 4; ++t) {
      executor.Submit([&executor, &total] {
        executor.ParallelFor(0, 1000, [&total](size_t begin, size_t end) {
          total.fetch_add(end - begin);
        });
      });
    }
    executor.WaitAll();
    EXPECT_EQ(total.load(), 4000u) << "jobs " << jobs;
  }
}

TEST(ParallelMapTest, ResultsLandAtCanonicalIndex) {
  for (size_t jobs : {1, 2, 8}) {
    Executor executor(jobs);
    auto out = ParallelMap(&executor, 1000,
                           [](size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 1000u);
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], i * i);
    }
  }
}

TEST(ParallelMapTest, NullExecutorRunsInline) {
  auto out = ParallelMap(static_cast<Executor*>(nullptr), 10,
                         [](size_t i) { return static_cast<int>(i) + 1; });
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out[9], 10);
}

TEST(ParallelMapTest, FoldInOrderIsSequentialAscending) {
  Executor executor(4);
  auto shards = ParallelMap(&executor, 64,
                            [](size_t i) { return std::to_string(i); });
  std::string joined;
  FoldInOrder(shards, [&joined](size_t, const std::string& s) {
    joined += s;
    joined += ',';
  });
  std::string expected;
  for (size_t i = 0; i < 64; ++i) {
    expected += std::to_string(i);
    expected += ',';
  }
  EXPECT_EQ(joined, expected);
}

TEST(StageStatsTest, RecordsInFirstSeenOrderAndAccumulates) {
  PipelineStats stats;
  stats.Record("alpha", 1.0, 2.0, 10);
  stats.Record("beta", 0.5, 0.5, 5);
  stats.Record("alpha", 1.0, 1.0, 3);
  ASSERT_EQ(stats.stages().size(), 2u);
  EXPECT_EQ(stats.stages()[0].first, "alpha");
  EXPECT_EQ(stats.stages()[1].first, "beta");
  const StageRecord* alpha = stats.Find("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_DOUBLE_EQ(alpha->wall_seconds, 2.0);
  EXPECT_DOUBLE_EQ(alpha->cpu_seconds, 3.0);
  EXPECT_EQ(alpha->items, 13u);
  EXPECT_EQ(alpha->calls, 2u);
  EXPECT_DOUBLE_EQ(stats.TotalWallSeconds(), 2.5);
  EXPECT_EQ(stats.Find("missing"), nullptr);
}

TEST(StageStatsTest, StageTimerRecordsScope) {
  PipelineStats stats;
  {
    StageTimer timer(&stats, "scoped");
    timer.AddItems(7);
  }
  const StageRecord* record = stats.Find("scoped");
  ASSERT_NE(record, nullptr);
  EXPECT_GE(record->wall_seconds, 0.0);
  EXPECT_EQ(record->items, 7u);
  EXPECT_EQ(record->calls, 1u);
}

TEST(EnvTest, EnvSizeOrParsesAndFallsBack) {
  unsetenv("LAPIS_TEST_ENV_SIZE");
  EXPECT_EQ(EnvSizeOr("LAPIS_TEST_ENV_SIZE", 7), 7u);
  setenv("LAPIS_TEST_ENV_SIZE", "42", 1);
  EXPECT_EQ(EnvSizeOr("LAPIS_TEST_ENV_SIZE", 7), 42u);
  setenv("LAPIS_TEST_ENV_SIZE", "-3", 1);
  EXPECT_EQ(EnvSizeOr("LAPIS_TEST_ENV_SIZE", 7), 7u);
  setenv("LAPIS_TEST_ENV_SIZE", "junk", 1);
  EXPECT_EQ(EnvSizeOr("LAPIS_TEST_ENV_SIZE", 7), 7u);
  unsetenv("LAPIS_TEST_ENV_SIZE");
}

}  // namespace
}  // namespace lapis::runtime
