#include "core/run_stats.h"

#include "core/engine_probe.h"

namespace granulock::core {

void RunStats::Start(sim::Machine* machine, double warmup,
                     EngineProbe* probe) {
  active_.Start(0.0, 0.0);
  blocked_.Start(0.0, 0.0);
  pending_.Start(0.0, 0.0);
  window_start_ = warmup;
  if (warmup > 0.0) {
    machine->sim().ScheduleAt(warmup, [this, machine, probe] {
      BeginMeasurement(machine, probe);
    });
  }
}

void RunStats::BeginMeasurement(sim::Machine* machine, EngineProbe* probe) {
  const double now = machine->Now();
  machine->ResetWindow();
  warmup_lock_requests_ = counts_.lock_requests;
  warmup_lock_denials_ = counts_.lock_denials;
  counts_ = Counts{};
  response_.Reset();
  response_quantiles_.Reset();
  phase_pending_.Reset();
  phase_lock_.Reset();
  phase_io_.Reset();
  phase_cpu_.Reset();
  phase_sync_.Reset();
  active_.ResetWindow(now);
  blocked_.ResetWindow(now);
  pending_.ResetWindow(now);
  window_start_ = now;
  probe->RestartSampleWindow();
}

void RunStats::Complete(double response) {
  ++counts_.totcom;
  response_.Add(response);
  response_quantiles_.Add(response);
}

void RunStats::Complete(double response, const Phases& phases) {
  Complete(response);
  phase_pending_.Add(phases.pending_wait);
  phase_lock_.Add(phases.lock_wait);
  phase_io_.Add(phases.io_service);
  phase_cpu_.Add(phases.cpu_service);
  phase_sync_.Add(phases.sync_wait);
}

SimulationMetrics RunStats::Collect(const sim::Machine& machine,
                                    double tmax) const {
  using sim::ServiceClass;
  SimulationMetrics m;
  m.measured_time = tmax - window_start_;
  for (int64_t n = 0; n < machine.npros(); ++n) {
    m.totcpus_sum += machine.cpu(n).TotalBusyTime();
    m.totios_sum += machine.io(n).TotalBusyTime();
    m.lockcpus_sum += machine.cpu(n).BusyTime(ServiceClass::kLock);
    m.lockios_sum += machine.io(n).BusyTime(ServiceClass::kLock);
  }
  m.totcpus = machine.cpu_union().AnyBusyTime(tmax);
  m.lockcpus = machine.cpu_union().LockBusyTime(tmax);
  m.totios = machine.io_union().AnyBusyTime(tmax);
  m.lockios = machine.io_union().LockBusyTime(tmax);
  const double npros = static_cast<double>(machine.npros());
  m.usefulcpus = (m.totcpus - m.lockcpus) / npros;
  m.usefulios = (m.totios - m.lockios) / npros;
  m.totcom = counts_.totcom;
  m.throughput = m.measured_time > 0.0
                     ? static_cast<double>(counts_.totcom) / m.measured_time
                     : 0.0;
  m.response_time = response_.Mean();
  m.response_time_stddev = response_.StdDev();
  m.response_p50 = response_quantiles_.Quantile(0.50);
  m.response_p95 = response_quantiles_.Quantile(0.95);
  m.response_p99 = response_quantiles_.Quantile(0.99);
  m.lock_requests = counts_.lock_requests;
  m.lock_denials = counts_.lock_denials;
  m.denial_rate = counts_.lock_requests > 0
                      ? static_cast<double>(counts_.lock_denials) /
                            static_cast<double>(counts_.lock_requests)
                      : 0.0;
  m.avg_active = active_.Average(tmax);
  m.avg_blocked = blocked_.Average(tmax);
  m.avg_pending = pending_.Average(tmax);
  m.cpu_utilization = m.measured_time > 0.0
                          ? m.totcpus_sum / (npros * m.measured_time)
                          : 0.0;
  m.io_utilization =
      m.measured_time > 0.0 ? m.totios_sum / (npros * m.measured_time) : 0.0;
  m.deadlock_aborts = counts_.deadlock_aborts;
  m.txn_restarts = counts_.txn_restarts;
  m.txn_sacrificed = counts_.txn_sacrificed;
  m.events_executed = machine.sim().ExecutedEvents();
  // Means over the completed transactions; exactly 0.0 for an engine that
  // records no decomposition or a phase it never enters (every Add is
  // 0.0, and Welford keeps a mean of identical values exact).
  m.phase_pending_wait = phase_pending_.Mean();
  m.phase_lock_wait = phase_lock_.Mean();
  m.phase_io_service = phase_io_.Mean();
  m.phase_cpu_service = phase_cpu_.Mean();
  m.phase_sync_wait = phase_sync_.Mean();
  return m;
}

}  // namespace granulock::core
