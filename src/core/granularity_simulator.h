#ifndef GRANULOCK_CORE_GRANULARITY_SIMULATOR_H_
#define GRANULOCK_CORE_GRANULARITY_SIMULATOR_H_

#include <cstdint>
#include <optional>

#include "core/admission.h"
#include "core/conservative_protocol.h"
#include "core/fault.h"
#include "core/metrics.h"
#include "model/config.h"
#include "model/conflict.h"
#include "obs/hooks.h"
#include "util/random.h"
#include "util/status.h"
#include "workload/workload.h"

namespace granulock::core {

/// The paper's simulation model (§2, Figure 1): the conservative-locking
/// protocol (`ConservativeProtocol`) with conflicts decided by the
/// probabilistic Ries–Stonebraker model over the currently active
/// transactions, plus the admission controls the paper leaves as remedies.
class GranularitySimulator {
 public:
  /// Policies that the paper leaves implicit, exposed for ablation.
  struct Options {
    /// If true (default, and the modelling assumption documented in
    /// DESIGN.md), only one lock request is processed at a time; if false
    /// the lock manager pipelines requests from the pending queue.
    bool serialize_lock_manager = true;
    /// If true (default), transactions released from the blocked queue are
    /// appended to the pending queue in FIFO order; if false they are
    /// prepended (retry-immediately policy).
    bool requeue_blocked_at_tail = true;
    /// Transaction-level admission control (the remedy §3.7 of the paper
    /// points to for heavy load): a pending transaction's lock request is
    /// dispatched only while fewer than this many transactions hold locks.
    /// 0 (default) disables the limit, reproducing the paper's model.
    int64_t max_active = 0;
    /// Adaptive transaction-level scheduling (the paper's reference [4]
    /// direction): when true, the multiprogramming cap adjusts itself
    /// every `adaptation_interval` time units — multiplicative decrease
    /// (x3/4) when the observed denial rate exceeds `target_denial_rate`,
    /// additive increase (+1) when it falls below half of it — through a
    /// `core::AdmissionController`. Overrides `max_active`.
    bool adaptive_admission = false;
    /// Adaptation period in time units (> 0 when adaptive).
    double adaptation_interval = 100.0;
    /// Denial rate the adaptive controller steers toward (in (0, 1)).
    double target_denial_rate = 0.3;
    /// Optional observability sinks, the lifecycle tracer among them (not
    /// owned; must outlive the run).
    /// Attaching any of them never changes simulated results: the same
    /// seed yields bit-identical `SimulationMetrics` either way.
    obs::Hooks obs;
    /// Optional per-cell watchdog (not owned; must outlive the run). The
    /// engine polls it from a repeating *observer* event — excluded from
    /// the executed-event count, so arming a watchdog never changes
    /// simulated results — and the poll throws to cancel the run at a
    /// deterministic simulated-time boundary. Null disables polling.
    const fault::CellWatchdog* watchdog = nullptr;
  };

  /// Builds a simulator for (`cfg`, `spec`); `seed` fully determines the
  /// run. Construction is cheap; call `Run()` once to execute.
  GranularitySimulator(model::SystemConfig cfg, workload::WorkloadSpec spec,
                       uint64_t seed, Options options);
  GranularitySimulator(model::SystemConfig cfg, workload::WorkloadSpec spec,
                       uint64_t seed);
  ~GranularitySimulator();

  GranularitySimulator(const GranularitySimulator&) = delete;
  GranularitySimulator& operator=(const GranularitySimulator&) = delete;

  /// Validates the configuration, executes the simulation to `cfg.tmax`,
  /// and returns the collected metrics. May be called once.
  Result<SimulationMetrics> Run();

  /// Convenience: construct-and-run in one call.
  static Result<SimulationMetrics> RunOnce(const model::SystemConfig& cfg,
                                           const workload::WorkloadSpec& spec,
                                           uint64_t seed, Options options);
  static Result<SimulationMetrics> RunOnce(const model::SystemConfig& cfg,
                                           const workload::WorkloadSpec& spec,
                                           uint64_t seed);

 private:
  friend struct AuditTestPeer;  // invariants_test corrupts state through it

  struct Txn;
  using Protocol = ConservativeProtocol<GranularitySimulator, Txn>;
  friend Protocol;

  // --- the protocol's hooks (see ConservativeProtocol) ---
  Txn* CreateTransaction();
  /// Conflict draw over the active transactions' lock counts.
  Txn* Decide(Txn* txn);
  void OnGranted(Txn* txn);
  void OnReleased(Txn* txn);
  int64_t AdmissionCap() const {
    return admission_ ? admission_->target() : options_.max_active;
  }
  /// The probabilistic engine has no lock table; occupancy is estimated
  /// from the locks the active transactions nominally hold.
  int64_t LockedGranules() const { return active_lu_total_; }
  /// The protocol's conservation audit, then that `active_lu_total_`
  /// matches the active transactions.
  void CheckConsistency() const;

  /// Adaptive admission: periodically retune the MPL cap from the denial
  /// rate observed in the last window.
  void AdaptAdmissionCap();

  model::SystemConfig cfg_;
  workload::WorkloadSpec spec_;
  Options options_;
  /// Built in `Run()` (needs a validated spec); amortizes lock-demand and
  /// node-set work across the millions of transactions one run creates.
  std::optional<workload::TransactionFactory> txn_factory_;
  Rng rng_;
  /// Profiler-private stream for imputed granule attribution (the
  /// probabilistic conflict model has no real lock table). Never draws
  /// from `rng_`, so profiling cannot perturb the simulation.
  Rng contention_rng_;
  model::ConflictModel conflict_;

  Protocol protocol_;
  /// Exact sum of `params.lu` over the active transactions (maintained at
  /// grant / release, audited in CheckConsistency). Lets the conflict draw
  /// skip the partial-sum scan entirely whenever the scaled variate
  /// exceeds the total — the common case at low contention — without
  /// changing any outcome: integer partial sums below 2^53 are exact in a
  /// double, so "variate > total" is precisely the old loop's
  /// fall-through condition.
  int64_t active_lu_total_ = 0;

  // Adaptive admission: the controller (built in Run() when enabled) and
  // the lifetime counts at the last evaluation.
  std::optional<AdmissionController> admission_;
  int64_t window_requests_ = 0;
  int64_t window_denials_ = 0;
};

}  // namespace granulock::core

#endif  // GRANULOCK_CORE_GRANULARITY_SIMULATOR_H_
