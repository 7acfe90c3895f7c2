// Small helpers shared by the benchmark runner: quantiles, clocks, the
// build facts that decide whether a run's timings count, and the span
// recorder the traced run writes out.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json_writer.h"

namespace perfbench {

/// Linear-interpolated quantile (`q` in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Monotonic clock in nanoseconds (CLOCK_MONOTONIC on Linux, the clock
/// Python's time.monotonic_ns reads).
int64_t MonotonicNs();

/// Process user + system CPU seconds, all threads.
double ProcessCpuSeconds();

/// Peak resident set of the process in MiB.
double PeakRssMiB();

/// Writes the compile-time facts of this binary (build type, compiler,
/// NDEBUG, audits, sanitizers) and whether they make a valid timing build.
void WriteBuildFacts(granulock::obs::JsonWriter& w);
bool BuildIsValidForTiming(std::string* reason);

/// Spans recorded by the traced run: name, start, end, parent span and
/// the grid cell they belong to (-1 outside a cell).
class SpanLog {
 public:
  int Begin(const char* name, int cell);
  void End(int id);
  bool WriteJson(const std::string& path, const std::string& workload) const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int cell = -1;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
