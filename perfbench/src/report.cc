#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int64_t MonotonicNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMiB() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef GRANULOCK_AUDIT_ENABLED
constexpr bool kAudited = true;
#else
constexpr bool kAudited = false;
#endif

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_COMPILER
#define PERFBENCH_CXX_COMPILER "unknown"
#endif

}  // namespace

void WriteBuildFacts(granulock::obs::JsonWriter& w) {
  w.Key("build_type").Value(PERFBENCH_BUILD_TYPE);
  w.Key("compiler").Value(PERFBENCH_CXX_COMPILER);
  w.Key("ndebug").Value(kNdebug);
  w.Key("audit").Value(kAudited);
  w.Key("sanitizer").Value(kSanitized);
}

bool BuildIsValidForTiming(std::string* reason) {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    *reason = std::string("build type is ") + PERFBENCH_BUILD_TYPE +
              ", not Release";
    return false;
  }
  if (kAudited) {
    *reason = "GRANULOCK_AUDIT checks are compiled in";
    return false;
  }
  if (kSanitized) {
    *reason = "built with a sanitizer";
    return false;
  }
  return true;
}

int SpanLog::Begin(const char* name, int cell) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.cell = cell;
  s.start_ns = MonotonicNs();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = MonotonicNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool SpanLog::WriteJson(const std::string& path,
                        const std::string& workload) const {
  std::ofstream out(path);
  if (!out) return false;
  granulock::obs::JsonWriter w(out);
  w.BeginObject();
  w.Key("workload").Value(workload);
  w.Key("clock").Value("monotonic_ns");
  w.Key("spans").BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.BeginObject();
    w.Key("id").Value(static_cast<int64_t>(i));
    w.Key("name").Value(s.name);
    w.Key("start_ns").Value(s.start_ns);
    w.Key("end_ns").Value(s.end_ns);
    w.Key("parent").Value(s.parent);
    w.Key("cell").Value(s.cell);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
