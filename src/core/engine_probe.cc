#include "core/engine_probe.h"

#include <algorithm>
#include <string>

#include "util/strings.h"

namespace granulock::core {

EngineProbe::EngineProbe(const obs::Hooks& hooks,
                         const fault::CellWatchdog* watchdog)
    : hooks_(hooks), watchdog_(watchdog) {}

void EngineProbe::Start(sim::Machine* machine, const RunStats* stats,
                        const model::SystemConfig& cfg, bool imputed,
                        bool counts_aborts) {
  machine_ = machine;
  stats_ = stats;
  cfg_ = &cfg;
  if (auto* reg = hooks_.registry) {
    ctr_txn_created_ = reg->GetCounter("engine.txn_created");
    ctr_lock_requests_ = reg->GetCounter("engine.lock_requests");
    ctr_lock_denials_ = reg->GetCounter("engine.lock_denials");
    ctr_lock_grants_ = reg->GetCounter("engine.lock_grants");
    ctr_subtxns_done_ = reg->GetCounter("engine.subtxns_completed");
    ctr_txn_completed_ = reg->GetCounter("engine.txn_completed");
    if (counts_aborts) {
      ctr_deadlock_aborts_ = reg->GetCounter("engine.deadlock_aborts");
    }
    hist_response_ = reg->GetHistogram(
        "engine.response_time",
        {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000});
  }
  if (auto* sampler = hooks_.sampler) {
    std::vector<std::string> cols = {"active", "blocked", "pending",
                                     "throughput"};
    for (int64_t n = 0; n < cfg.npros; ++n) {
      cols.push_back(StrFormat("cpu%lld_util", (long long)n));
    }
    for (int64_t n = 0; n < cfg.npros; ++n) {
      cols.push_back(StrFormat("disk%lld_util", (long long)n));
    }
    sampler->SetColumns(std::move(cols));
    sample_cpu_busy_.assign(static_cast<size_t>(cfg.npros), 0.0);
    sample_io_busy_.assign(static_cast<size_t>(cfg.npros), 0.0);
    const double iv = sampler->interval();
    if (iv > 0.0 && iv <= cfg.tmax) {
      machine_->sim().ScheduleObserverAt(iv, [this] { SampleTick(); });
    }
  }
  if (auto* prof = hooks_.contention) prof->BeginRun(cfg.ltot, imputed);
}

void EngineProbe::SampleTick() {
  auto* sampler = hooks_.sampler;
  const double now = machine_->Now();
  const double dt = now - sample_time_;
  const int64_t npros = machine_->npros();
  std::vector<double> row;
  row.reserve(4 + 2 * static_cast<size_t>(npros));
  row.push_back(stats_->active());
  row.push_back(stats_->blocked());
  row.push_back(stats_->pending());
  // Interval deltas are clamped at 0: the warmup reset zeroes the
  // underlying totals mid-stream, so the one row straddling the warmup
  // boundary under-reports rather than going negative.
  const int64_t totcom = stats_->counts().totcom;
  row.push_back(dt > 0.0 ? std::max(0.0, static_cast<double>(
                                             totcom - sample_totcom_)) /
                               dt
                         : 0.0);
  for (int64_t n = 0; n < npros; ++n) {
    const size_t i = static_cast<size_t>(n);
    const double busy = machine_->cpu(n).TotalBusyTime();
    row.push_back(dt > 0.0
                      ? std::max(0.0, busy - sample_cpu_busy_[i]) / dt
                      : 0.0);
    sample_cpu_busy_[i] = busy;
  }
  for (int64_t n = 0; n < npros; ++n) {
    const size_t i = static_cast<size_t>(n);
    const double busy = machine_->io(n).TotalBusyTime();
    row.push_back(dt > 0.0 ? std::max(0.0, busy - sample_io_busy_[i]) / dt
                           : 0.0);
    sample_io_busy_[i] = busy;
  }
  sample_totcom_ = totcom;
  sample_time_ = now;
  sampler->Push(now, std::move(row));
  const double iv = sampler->interval();
  if (now + iv <= cfg_->tmax) {
    machine_->sim().ScheduleObserverAfter(iv, [this] { SampleTick(); });
  }
}

void EngineProbe::RestartSampleWindow() {
  sample_totcom_ = 0;
  std::fill(sample_cpu_busy_.begin(), sample_cpu_busy_.end(), 0.0);
  std::fill(sample_io_busy_.begin(), sample_io_busy_.end(), 0.0);
}

void EngineProbe::ContentionSample(
    std::vector<std::pair<uint64_t, uint64_t>> edges,
    int64_t locked_granules) {
  const double ntrans = static_cast<double>(cfg_->ntrans);
  const double blocked_fraction =
      ntrans > 0.0 ? stats_->blocked() / ntrans : 0.0;
  const double occupancy =
      cfg_->ltot > 0 ? std::min(1.0, static_cast<double>(locked_granules) /
                                         static_cast<double>(cfg_->ltot))
                     : 0.0;
  const RunStats::Counts& counts = stats_->counts();
  hooks_.contention->OnSample(machine_->Now(), blocked_fraction, occupancy,
                              std::move(edges), counts.deadlock_aborts,
                              counts.txn_restarts, counts.txn_sacrificed);
}

void EngineProbe::ArmWatchdog() {
  if (watchdog_ != nullptr && watchdog_->active()) ScheduleWatchdogPoll();
}

void EngineProbe::ScheduleWatchdogPoll() {
  machine_->sim().ScheduleObserverAfter(watchdog_->poll_interval(), [this] {
    watchdog_->Poll();  // throws to cancel the cell
    ScheduleWatchdogPoll();
  });
}

void EngineProbe::PublishRunProfile(double wall_seconds) const {
  auto* reg = hooks_.registry;
  if (reg == nullptr) return;
  const sim::Simulator& sim = machine_->sim();
  reg->GetGauge("sim.events_executed")
      ->Set(static_cast<double>(sim.ExecutedEvents()));
  reg->GetGauge("sim.observer_events")
      ->Set(static_cast<double>(sim.ExecutedObserverEvents()));
  reg->GetGauge("sim.event_queue_hwm")
      ->Set(static_cast<double>(sim.MaxPendingEvents()));
  reg->GetGauge("engine.wall_seconds")->Set(wall_seconds);
  reg->GetGauge("engine.events_per_sec")
      ->Set(wall_seconds > 0.0
                ? static_cast<double>(sim.ExecutedEvents()) / wall_seconds
                : 0.0);
}

}  // namespace granulock::core
