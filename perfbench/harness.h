// Measurement plumbing shared by the benchmark's workloads: the percentile
// rule, the seeded open-loop arrival schedule, metric-name validation, the
// result record printed for run.py, span tracing, and the build/host
// identity stamped on every result.

#ifndef LAPIS_PERFBENCH_HARNESS_H_
#define LAPIS_PERFBENCH_HARNESS_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace lapis::perfbench {

// ---- Statistics ----

// Percentiles a tail may be reported at, lowest first.
inline constexpr std::array<double, 4> kPercentileLadder = {50.0, 90.0, 99.0,
                                                            99.9};

// The highest ladder percentile that leaves at least ten of `samples`
// strictly beyond it, or 0 when even the median does not (fewer than 20).
double HighestReportablePercentile(size_t samples);

// Nearest-rank percentile (pct in (0, 100]); 0 for an empty input.
double Percentile(std::vector<double> values, double pct);
double Median(std::vector<double> values);

// ---- Open-loop load ----

enum class FrameClass : uint8_t { kPoint = 0, kTopK = 1, kEval = 2 };
inline constexpr size_t kFrameClassCount = 3;
const char* FrameClassName(FrameClass frame_class);

struct Arrival {
  double due_s = 0.0;       // offset from the start of the window
  uint32_t connection = 0;  // which persistent connection sends it
  FrameClass frame_class = FrameClass::kPoint;
  uint32_t payload = 0;     // index into that class's frame pool
};

struct ScheduleOptions {
  double rate_per_s = 3000.0;  // total offered frames per second
  double seconds = 10.0;
  uint32_t connections = 2;
  // Probability of each FrameClass; must sum to 1.
  std::array<double, kFrameClassCount> class_mix = {0.7, 0.2, 0.1};
  // Pool size per class; payloads are drawn uniformly from [0, size).
  std::array<uint32_t, kFrameClassCount> pool_sizes = {1, 1, 1};
};

// Poisson arrivals (exponential gaps) over [0, seconds), each assigned a
// uniformly chosen connection, a class by `class_mix`, and a payload. A
// pure function of (seed, options).
std::vector<Arrival> PoissonSchedule(uint64_t seed,
                                     const ScheduleOptions& options);

// ---- Results ----

// True when `name` matches [A-Za-z0-9_.-]+ (the benchmark's metric names).
bool IsValidMetricName(std::string_view name);

// One process's measurements, printed as a single JSON line for run.py.
class Report {
 public:
  // Records a metric; an invalid name or a non-finite value is a program
  // bug in the benchmark and aborts.
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);
  void Info(const std::string& key, const std::vector<double>& values);
  void Attempt(uint64_t attempted, uint64_t failed);

  std::string ToJson() const;

 private:
  struct MetricValue {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, MetricValue> metrics_;
  std::map<std::string, std::string> info_;  // values already JSON-encoded
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Adds nproc, CPU model, kernel, compiler and build type to `report`.
void AddBuildAndHost(Report& report);

// Non-empty when this binary must not report timings (sanitizer or
// unoptimized build); the text says why.
std::string UnfitForTimingReason();

// ---- Tracing ----

// In-memory span log written out as Chrome trace-event JSON. Spans carry a
// name ("<layer>.<what>"), start/end on the monotonic clock, the id of the
// span that caused them (0 = root) and a request id (0 = none). A disabled
// tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // Opens a span on the calling thread as a child of that thread's
  // innermost open span; Close() must be called on the same thread.
  uint64_t Open(std::string name, uint64_t request = 0);
  void Close(uint64_t id);

  // Records an already finished span, e.g. one begun on another thread;
  // returns its id.
  uint64_t Add(std::string name, double start_s, double end_s, uint64_t parent,
           uint64_t request);

  size_t size() const;

  // Self time (duration minus the part covered by child spans) summed per
  // layer, the span-name prefix before the first '.'.
  std::map<std::string, double> SelfSecondsByLayer() const;

  Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = -1.0;  // < start_s while open
    uint64_t parent = 0;
    uint64_t request = 0;
    uint32_t thread = 0;
  };

  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // span id = index + 1
};

// RAII span on the calling thread; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  uint64_t id_ = 0;
};

}  // namespace lapis::perfbench

#endif  // LAPIS_PERFBENCH_HARNESS_H_
