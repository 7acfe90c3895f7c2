#ifndef GRANULOCK_OBS_HOOKS_H_
#define GRANULOCK_OBS_HOOKS_H_

#include "obs/contention.h"
#include "obs/registry.h"
#include "obs/span_trace.h"
#include "obs/time_series.h"

namespace granulock::sim {
class TraceRecorder;
}  // namespace granulock::sim

namespace granulock::obs {

/// The bundle of opt-in observability sinks an engine accepts through its
/// `Options`. All pointers are optional and unowned; they must outlive the
/// run.
///
/// Contract: attaching any sink MUST NOT change simulated results — the
/// same seed yields bit-identical `SimulationMetrics` with hooks set or
/// null (enforced by tests/observability_test.cc). Sinks only read engine
/// state; sampler ticks ride on observer events that are excluded from
/// the executed-event count.
struct Hooks {
  /// Named counters/gauges/histograms: engine self-profiling (per-event-
  /// type execution counts, event-queue high-water mark, wall-clock
  /// events/sec) plus a response-time histogram.
  MetricsRegistry* registry = nullptr;
  /// Phase spans (pending/lock/io/cpu/sync) for Chrome-trace export.
  SpanRecorder* spans = nullptr;
  /// Periodic queue/utilization/throughput samples.
  TimeSeriesSampler* sampler = nullptr;
  /// Per-granule wait attribution, blocking-chain telemetry, and the
  /// contention time series (see obs/contention.h).
  ContentionProfiler* contention = nullptr;
  /// Transaction-lifecycle events (created, lock requested / granted /
  /// denied, completed, aborted); see sim/trace.h.
  sim::TraceRecorder* trace = nullptr;

  bool any() const {
    return registry != nullptr || spans != nullptr || sampler != nullptr ||
           contention != nullptr || trace != nullptr;
  }
};

}  // namespace granulock::obs

#endif  // GRANULOCK_OBS_HOOKS_H_
