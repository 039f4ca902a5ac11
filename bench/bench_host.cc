#include "bench/bench_host.h"

#include <cstdio>
#include <ctime>
#include <fstream>
#include <thread>

namespace lapis::bench {
namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    auto colon = line.find(':');
    if (colon != std::string::npos &&
        line.compare(0, 10, "model name") == 0) {
      size_t start = line.find_first_not_of(" \t", colon + 1);
      return start == std::string::npos ? "" : line.substr(start);
    }
  }
  return "unknown";
}

std::string KernelRelease() {
  std::ifstream in("/proc/sys/kernel/osrelease");
  std::string release;
  std::getline(in, release);
  return release.empty() ? "unknown" : release;
}

std::string IsoDate() {
  std::time_t now = std::time(nullptr);
  char buf[16];
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  std::strftime(buf, sizeof buf, "%Y-%m-%d", &tm_utc);
  return buf;
}

}  // namespace

std::string HostJson() {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "  \"host\": {\n"
                "    \"cpu_model\": \"%s\",\n"
                "    \"logical_cpus\": %u,\n"
                "    \"kernel\": \"%s\",\n"
                "    \"compiler\": \"%s\",\n"
                "    \"date\": \"%s\"\n"
                "  },\n",
                CpuModel().c_str(), std::thread::hardware_concurrency(),
                KernelRelease().c_str(), __VERSION__, IsoDate().c_str());
  return buf;
}

}  // namespace lapis::bench
