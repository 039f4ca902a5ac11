// Per-stage pipeline accounting: wall time, process CPU time, and item
// counts for each named stage, plus an RAII timer. The study runner fills
// one PipelineStats per run; bench_tab12_framework and the bench fixture
// print it next to the executor's task and queue-depth counters.

#ifndef LAPIS_SRC_RUNTIME_STAGE_STATS_H_
#define LAPIS_SRC_RUNTIME_STAGE_STATS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lapis::runtime {

struct StageRecord {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;  // process CPU: > wall when threads overlap
  uint64_t items = 0;
  uint32_t calls = 0;
};

// Stage records in first-recorded order. Not thread-safe: stages are
// recorded by the orchestrating thread between parallel regions.
class PipelineStats {
 public:
  void Record(const std::string& stage, double wall_seconds,
              double cpu_seconds, uint64_t items);

  const std::vector<std::pair<std::string, StageRecord>>& stages() const {
    return stages_;
  }
  const StageRecord* Find(std::string_view stage) const;
  double TotalWallSeconds() const;
  double TotalCpuSeconds() const;

 private:
  std::vector<std::pair<std::string, StageRecord>> stages_;
};

// Monotonic wall clock / cumulative process CPU clock, in seconds.
double MonotonicSeconds();
double ProcessCpuSeconds();

// Peak resident set size of this process in KiB (getrusage ru_maxrss), or
// 0 if unavailable. Note: a process-lifetime high-water mark — it never
// decreases, so per-phase deltas need a fresh process.
uint64_t PeakRssKib();

// Records the enclosing scope as one stage invocation.
class StageTimer {
 public:
  StageTimer(PipelineStats* stats, std::string stage);
  ~StageTimer();
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  void AddItems(uint64_t n) { items_ += n; }

 private:
  PipelineStats* stats_;
  std::string stage_;
  double wall_start_;
  double cpu_start_;
  uint64_t items_ = 0;
};

}  // namespace lapis::runtime

#endif  // LAPIS_SRC_RUNTIME_STAGE_STATS_H_
