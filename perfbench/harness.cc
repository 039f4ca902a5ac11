#include "perfbench/harness.h"

#include <sys/utsname.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "src/runtime/stage_stats.h"
#include "src/util/prng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace lapis::perfbench {

namespace {

// Nearest-rank index (0-based) of percentile `pct` among `n` sorted values.
size_t NearestRankIndex(size_t n, double pct) {
  double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002 + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

// Per-thread tracing state: a small stable id for the trace's "tid" and
// the stack of spans this thread has open.
uint32_t ThreadNumber() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t number = next.fetch_add(1);
  return number;
}

std::vector<uint64_t>& OpenSpans() {
  thread_local std::vector<uint64_t> stack;
  return stack;
}

}  // namespace

double HighestReportablePercentile(size_t samples) {
  for (auto it = kPercentileLadder.rbegin(); it != kPercentileLadder.rend();
       ++it) {
    if (samples == 0) {
      break;
    }
    size_t beyond = samples - 1 - NearestRankIndex(samples, *it);
    if (beyond >= 10) {
      return *it;
    }
  }
  return 0.0;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) {
    return 0.0;
  }
  size_t index = NearestRankIndex(values.size(), pct);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

const char* FrameClassName(FrameClass frame_class) {
  switch (frame_class) {
    case FrameClass::kPoint:
      return "point";
    case FrameClass::kTopK:
      return "topk";
    case FrameClass::kEval:
      return "eval";
  }
  return "unknown";
}

std::vector<Arrival> PoissonSchedule(uint64_t seed,
                                     const ScheduleOptions& options) {
  Prng prng(seed);
  std::vector<Arrival> arrivals;
  arrivals.reserve(
      static_cast<size_t>(options.rate_per_s * options.seconds * 1.1) + 16);
  double t = 0.0;
  while (true) {
    // Inverse-CDF exponential gap; 1 - u keeps the log argument in (0, 1].
    t += -std::log(1.0 - prng.NextDouble()) / options.rate_per_s;
    if (t >= options.seconds) {
      break;
    }
    Arrival arrival;
    arrival.due_s = t;
    arrival.connection =
        static_cast<uint32_t>(prng.NextBelow(options.connections));
    double u = prng.NextDouble();
    size_t cls = 0;
    while (cls + 1 < kFrameClassCount && u >= options.class_mix[cls]) {
      u -= options.class_mix[cls];
      ++cls;
    }
    arrival.frame_class = static_cast<FrameClass>(cls);
    arrival.payload =
        static_cast<uint32_t>(prng.NextBelow(options.pool_sizes[cls]));
    arrivals.push_back(arrival);
  }
  return arrivals;
}

bool IsValidMetricName(std::string_view name) {
  if (name.empty()) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!IsValidMetricName(name) || !std::isfinite(value)) {
    std::fprintf(stderr, "perfbench: bad metric %s = %g\n", name.c_str(),
                 value);
    std::abort();
  }
  metrics_[name] = MetricValue{value, unit};
}

void Report::Info(const std::string& key, const std::string& value) {
  info_[key] = JsonString(value);
}

void Report::Info(const std::string& key, double value) {
  info_[key] = std::isfinite(value) ? JsonNumber(value) : "null";
}

void Report::Info(const std::string& key,
                  const std::vector<double>& values) {
  std::string list = "[";
  for (double value : values) {
    list += (list.size() > 1 ? ", " : "") + JsonNumber(value);
  }
  info_[key] = list + "]";
}

void Report::Attempt(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::ToJson() const {
  std::ostringstream os;
  os << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    os << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
       << JsonNumber(metric.value) << ", \"unit\": " << JsonString(metric.unit)
       << "}";
    first = false;
  }
  os << "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : info_) {
    os << (first ? "" : ", ") << JsonString(key) << ": " << value;
    first = false;
  }
  os << "}}";
  return os.str();
}

void AddBuildAndHost(Report& report) {
  report.Info("nproc",
              static_cast<double>(std::thread::hardware_concurrency()));
  report.Info("cpu_model", CpuModel());
  utsname uts{};
  report.Info("kernel", ::uname(&uts) == 0 ? uts.release : "unknown");
  report.Info("compiler", __VERSION__);
  report.Info("build_type", PERFBENCH_BUILD_TYPE);
}

std::string UnfitForTimingReason() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PERFBENCH_SANITIZED)
  return "built with a sanitizer";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "built with a sanitizer";
#endif
#endif
#ifndef __OPTIMIZE__
  return "built without optimization";
#else
  return "";
#endif
}

uint64_t Tracer::Open(std::string name, uint64_t request) {
  if (!enabled_) {
    return 0;
  }
  std::vector<uint64_t>& stack = OpenSpans();
  Span span;
  span.name = std::move(name);
  span.parent = stack.empty() ? 0 : stack.back();
  span.request = request;
  span.thread = ThreadNumber();
  span.start_s = runtime::MonotonicSeconds();
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    id = spans_.size();
  }
  stack.push_back(id);
  return id;
}

void Tracer::Close(uint64_t id) {
  if (!enabled_ || id == 0) {
    return;
  }
  double end = runtime::MonotonicSeconds();
  std::vector<uint64_t>& stack = OpenSpans();
  if (!stack.empty() && stack.back() == id) {
    stack.pop_back();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_s = end;
}

uint64_t Tracer::Add(std::string name, double start_s, double end_s,
                     uint64_t parent, uint64_t request) {
  if (!enabled_) {
    return 0;
  }
  Span span;
  span.name = std::move(name);
  span.start_s = start_s;
  span.end_s = end_s;
  span.parent = parent;
  span.request = request;
  span.thread = ThreadNumber();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return spans_.size();
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent != 0 && span.end_s >= span.start_s) {
      children[span.parent - 1].emplace_back(span.start_s, span.end_s);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_s < span.start_s) {
      continue;  // never closed
    }
    // Union of the children's intervals, clipped to this span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = span.start_s;
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, span.end_s);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    std::string layer = span.name.substr(0, span.name.find('.'));
    self[layer] += (span.end_s - span.start_s) - covered;
  }
  return self;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (const Span& span : spans_) {
    origin = std::min(origin, span.start_s);
  }
  std::ofstream os(path, std::ios::trunc);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    double end = span.end_s < span.start_s ? span.start_s : span.end_s;
    os << (i == 0 ? "" : ",\n") << "{\"name\": " << JsonString(span.name)
       << ", \"cat\": "
       << JsonString(span.name.substr(0, span.name.find('.')))
       << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.thread
       << ", \"ts\": " << JsonNumber((span.start_s - origin) * 1e6)
       << ", \"dur\": " << JsonNumber((end - span.start_s) * 1e6)
       << ", \"args\": {\"id\": " << i + 1 << ", \"parent\": " << span.parent
       << ", \"request\": " << span.request << "}}";
  }
  os << "\n]}\n";
  os.flush();
  if (!os.good()) {
    return IoError("cannot write trace " + path);
  }
  return Status::Ok();
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string name, uint64_t request)
    : tracer_(tracer), id_(tracer.Open(std::move(name), request)) {}

ScopedSpan::~ScopedSpan() { tracer_.Close(id_); }

}  // namespace lapis::perfbench
