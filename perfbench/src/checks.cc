#include "checks.h"

#include <cmath>
#include <cstring>

#include "model/analytic.h"
#include "util/strings.h"

namespace perfbench {

using granulock::StrFormat;
using granulock::core::SimulationMetrics;

uint64_t FoldBytes(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

uint64_t Fold(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return FoldBytes(h, &bits, sizeof bits);
}

uint64_t Fold(uint64_t h, int64_t v) { return FoldBytes(h, &v, sizeof v); }

}  // namespace

std::string CheckMetrics(const Point& point, const SimulationMetrics& m) {
  const double doubles[] = {
      m.totcpus,        m.totios,          m.lockcpus,
      m.lockios,        m.usefulcpus,      m.usefulios,
      m.throughput,     m.response_time,   m.measured_time,
      m.avg_active,     m.avg_blocked,     m.avg_pending,
      m.phase_pending_wait, m.phase_lock_wait, m.phase_io_service,
      m.phase_cpu_service,  m.phase_sync_wait};
  for (double v : doubles) {
    if (!std::isfinite(v)) return "non-finite metric";
  }
  const double phases = m.phase_pending_wait + m.phase_lock_wait +
                        m.phase_io_service + m.phase_cpu_service +
                        m.phase_sync_wait;
  if (std::fabs(phases - m.response_time) > 1e-9 * m.response_time) {
    return StrFormat("phases sum to %.17g, response_time is %.17g", phases,
                     m.response_time);
  }
  if (m.lock_denials < 0 || m.lock_denials > m.lock_requests) {
    return StrFormat("lock_denials %lld outside [0, lock_requests %lld]",
                     (long long)m.lock_denials, (long long)m.lock_requests);
  }
  if (m.deadlock_aborts != m.txn_restarts + m.txn_sacrificed) {
    return StrFormat("deadlock_aborts %lld != restarts %lld + sacrificed %lld",
                     (long long)m.deadlock_aborts, (long long)m.txn_restarts,
                     (long long)m.txn_sacrificed);
  }
  if (point.engine == Engine::kProbabilistic) {
    // The operational bound caps the long-run completion rate. A finite
    // run starts empty and ends with ntrans transactions in flight, and
    // the in-flight ones are the large ones: by Lorden's renewal
    // inequality each terminal completes at most E[S^2]/E[S]^2 (4/3 for
    // uniform sizes) transactions beyond the rate bound, in expectation.
    // Allow that plus four standard deviations of the count.
    const double upper =
        granulock::model::ComputeThroughputBounds(point.cfg,
                                                  point.spec.placement)
            .Upper();
    const double expected =
        upper * m.measured_time + 4.0 / 3.0 * static_cast<double>(point.cfg.ntrans);
    const double allowed = expected + 4.0 * std::sqrt(expected);
    if (static_cast<double>(m.totcom) > allowed) {
      return StrFormat(
          "%lld completions in %.17g time units, above the operational bound "
          "%.17g/unit (at most %.1f allowed)",
          (long long)m.totcom, m.measured_time, upper, allowed);
    }
  }
  return "";
}

uint64_t FoldDigest(uint64_t h, const SimulationMetrics& m) {
  for (double v :
       {m.totcpus, m.totios, m.lockcpus, m.lockios, m.usefulcpus, m.usefulios,
        m.throughput, m.response_time, m.totcpus_sum, m.totios_sum,
        m.lockcpus_sum, m.lockios_sum, m.measured_time, m.response_time_stddev,
        m.response_p50, m.response_p95, m.response_p99, m.denial_rate,
        m.avg_active, m.avg_blocked, m.avg_pending, m.cpu_utilization,
        m.io_utilization, m.avg_admission_held, m.phase_pending_wait,
        m.phase_lock_wait, m.phase_io_service, m.phase_cpu_service,
        m.phase_sync_wait}) {
    h = Fold(h, v);
  }
  for (int64_t v : {m.totcom, m.lock_requests, m.lock_denials,
                    m.deadlock_aborts, m.txn_restarts, m.txn_sacrificed}) {
    h = Fold(h, v);
  }
  return h;
}

std::string HexDigest(uint64_t h) {
  return StrFormat("%016llx", (unsigned long long)h);
}

}  // namespace perfbench
