#include "core/granularity_simulator.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/invariants.h"

namespace granulock::core {

/// One live transaction. `params` is drawn once at creation; `blocked`
/// lists the transactions this one is currently blocking.
struct GranularitySimulator::Txn {
  uint64_t id = 0;
  workload::TransactionParams params;
  double arrival_time = 0.0;  // first entry into the pending queue
  int64_t subtxns_remaining = 0;
  std::vector<Txn*> blocked;

  PhaseClock clock;  // phase accounting, always on
  // (node, cpu-done) per sub-transaction; filled only when a SpanRecorder
  // is attached, to emit the sync spans at completion.
  std::vector<std::pair<int32_t, double>> sub_cpu_done;

  /// Freshly-constructed state, vectors' capacity kept (core::TxnPool).
  void Reset() {
    id = 0;
    arrival_time = 0.0;
    subtxns_remaining = 0;
    blocked.clear();
    clock = {};
    sub_cpu_done.clear();
  }
};

GranularitySimulator::GranularitySimulator(model::SystemConfig cfg,
                                           workload::WorkloadSpec spec,
                                           uint64_t seed, Options options)
    : cfg_(std::move(cfg)),
      spec_(std::move(spec)),
      options_(options),
      rng_(seed),
      contention_rng_(seed ^ 0x5deece66d1ce4e5dull),
      conflict_(std::max<int64_t>(1, cfg_.ltot)),
      protocol_(this, &rng_, options_.obs, options_.watchdog,
                options_.serialize_lock_manager,
                options_.requeue_blocked_at_tail) {}

GranularitySimulator::GranularitySimulator(model::SystemConfig cfg,
                                           workload::WorkloadSpec spec,
                                           uint64_t seed)
    : GranularitySimulator(std::move(cfg), std::move(spec), seed, Options{}) {}

GranularitySimulator::~GranularitySimulator() = default;

Result<SimulationMetrics> GranularitySimulator::RunOnce(
    const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
    uint64_t seed, Options options) {
  GranularitySimulator simulator(cfg, spec, seed, options);
  return simulator.Run();
}

Result<SimulationMetrics> GranularitySimulator::RunOnce(
    const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
    uint64_t seed) {
  return RunOnce(cfg, spec, seed, Options{});
}

Result<SimulationMetrics> GranularitySimulator::Run() {
  GRANULOCK_RETURN_NOT_OK(protocol_.Begin());
  GRANULOCK_RETURN_NOT_OK(cfg_.Validate());
  GRANULOCK_RETURN_NOT_OK(spec_.Validate(cfg_));
  txn_factory_.emplace(cfg_, spec_);
  if (options_.max_active < 0) {
    return Status::InvalidArgument("max_active must be >= 0");
  }
  if (options_.adaptive_admission) {
    // Negated ranges, so a NaN fails them.
    if (!(options_.adaptation_interval > 0.0)) {
      return Status::InvalidArgument("adaptation_interval must be positive");
    }
    if (!(options_.target_denial_rate > 0.0 &&
          options_.target_denial_rate < 1.0)) {
      return Status::InvalidArgument("target_denial_rate must be in (0,1)");
    }
    // Start permissive (target = ntrans), tighten on evidence.
    admission_.emplace(
        AdmissionOptions{.enabled = true,
                         .high_water = options_.target_denial_rate,
                         .low_water = 0.5 * options_.target_denial_rate,
                         .interval = options_.adaptation_interval,
                         .decrease_factor = 0.75,
                         .increase_step = 1,
                         .min_mpl = 1},
        cfg_.ntrans);
    protocol_.machine().sim().ScheduleAt(options_.adaptation_interval,
                                         [this] { AdaptAdmissionCap(); });
  }
  return protocol_.Run(cfg_, /*imputed=*/true);
}

GranularitySimulator::Txn* GranularitySimulator::CreateTransaction() {
  Txn* txn = protocol_.txns().Acquire();
  txn_factory_->Generate(rng_, &txn->params);
  return txn;
}

void GranularitySimulator::AdaptAdmissionCap() {
  // AIMD on the multiprogramming level: denials waste lock-processing
  // capacity (the cost is charged whether or not the locks are granted),
  // so a high denial rate means too many transactions are competing.
  // Lifetime counts: the warm-up reset must not reach the controller.
  const RunStats& stats = protocol_.stats();
  const int64_t requests = stats.lifetime_lock_requests() - window_requests_;
  const int64_t denials = stats.lifetime_lock_denials() - window_denials_;
  window_requests_ = stats.lifetime_lock_requests();
  window_denials_ = stats.lifetime_lock_denials();
  if (requests > 0) {
    const int64_t before = admission_->target();
    admission_->Evaluate(static_cast<double>(denials) /
                         static_cast<double>(requests));
    // The looser cap may admit immediately.
    if (admission_->target() > before) protocol_.Pump();
  }
  sim::Machine& machine = protocol_.machine();
  if (machine.Now() + options_.adaptation_interval <= cfg_.tmax) {
    machine.sim().ScheduleAfter(options_.adaptation_interval,
                                [this] { AdaptAdmissionCap(); });
  }
}

void GranularitySimulator::CheckConsistency() const {
  protocol_.CheckConsistency();
  // The incrementally maintained conflict-scan total never drifts from
  // the ground truth it summarizes.
  int64_t lu_total = 0;
  for (const Txn* txn : protocol_.active()) lu_total += txn->params.lu;
  GRANULOCK_AUDIT_CHECK_EQ(active_lu_total_, lu_total)
      << "active_lu_total_ drifted from the sum over the active list";
}

GranularitySimulator::Txn* GranularitySimulator::Decide(Txn* txn) {
  // Equivalent to `conflict_.DrawBlocker` on a vector of the active
  // transactions' `lu` values but without materializing that vector: the
  // running `active_lu_total_` decides the common no-conflict case with a
  // single comparison. The early-out is exact (not a shortcut) while the
  // total stays below 2^53, where every partial sum the scan would form is
  // an exactly-represented integer; a larger total falls back to the scan
  // so the outcome is still bit-identical to the reference loop.
  const std::vector<Txn*>& active = protocol_.active();
  if (active.empty()) return nullptr;
  const double scaled = conflict_.DrawScaledVariate(rng_);
  if (active_lu_total_ < (int64_t{1} << 53) &&
      scaled > static_cast<double>(active_lu_total_)) {
    return nullptr;
  }
  double cum = 0.0;
  for (Txn* holder : active) {
    cum += static_cast<double>(holder->params.lu);
    if (scaled > cum) continue;
    if (auto* prof = protocol_.probe().contention()) {
      // Granule attribution is imputed (the Ries–Stonebraker model names
      // no granule): drawn uniformly from a profiler-private stream.
      // Conservative X-only locking: depth is always 1.
      const int64_t granule =
          cfg_.ltot > 1 ? contention_rng_.UniformInt(0, cfg_.ltot - 1) : 0;
      prof->OnBlock(txn->id, granule, lockmgr::LockMode::kX,
                    lockmgr::LockMode::kX, /*chain_depth=*/1,
                    protocol_.machine().Now());
    }
    return holder;
  }
  return nullptr;
}

void GranularitySimulator::OnGranted(Txn* txn) {
  active_lu_total_ += txn->params.lu;
  if (auto* prof = protocol_.probe().contention()) {
    // Aggregate only: the imputed engine cannot attribute grants to real
    // granules, so per-granule grant counts stay 0 here.
    prof->OnGrantTotal(txn->params.lu);
  }
}

void GranularitySimulator::OnReleased(Txn* txn) {
  active_lu_total_ -= txn->params.lu;
}

}  // namespace granulock::core
