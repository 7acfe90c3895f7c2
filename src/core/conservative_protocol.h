#ifndef GRANULOCK_CORE_CONSERVATIVE_PROTOCOL_H_
#define GRANULOCK_CORE_CONSERVATIVE_PROTOCOL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "core/engine_probe.h"
#include "core/fault.h"
#include "core/fork_join.h"
#include "core/metrics.h"
#include "core/run_stats.h"
#include "core/txn_pool.h"
#include "model/config.h"
#include "obs/hooks.h"
#include "sim/invariants.h"
#include "sim/machine.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"
#include "util/wall_clock.h"

namespace granulock::core {

/// The paper's conservative-locking protocol (§2, Figure 1): a closed
/// system of `ntrans` transactions cycling through one `sim::Machine`,
/// with the conflict decision left to the engine.
///
/// Life of a transaction:
///  1. It sits in the FIFO *pending* queue. When it reaches the head, the
///     lock manager is free and the admission cap allows, its lock request
///     is processed: `params.lock_io_demand` of I/O then
///     `params.lock_cpu_demand` of CPU, shared equally by all nodes and
///     served at preemptive priority over transaction work. The cost is
///     paid whether or not the locks are granted. A transaction with no
///     locks to set (`params.lu == 0`) makes no request and goes straight
///     to step 3.
///  2. The engine decides the request. A refused transaction waits on its
///     blocker until the blocker completes, then re-enters the pending
///     queue (and pays the lock cost again).
///  3. A granted transaction runs its execution step. By default it splits
///     into `PU` sub-transactions on distinct nodes (all nodes under
///     horizontal partitioning), each performing `NU/PU` entities' worth
///     of I/O then CPU in its node's FCFS queues (`ForkJoin`).
///  4. When the step finishes, the transaction completes, releases its
///     locks and its blocked transactions, and is replaced by a fresh
///     transaction with new random parameters after the terminal's think
///     time (0 in the paper's model).
///
/// Deadlock is impossible: all locks are requested up front, so only lock
/// holders block others and the waits-for relation has depth one.
///
/// `Engine` decides through these members, called directly (the protocol
/// must be its friend):
///  - `Txn* CreateTransaction()`: a transaction from `txns()` with its
///    `params` drawn. `lu`, `lock_io_demand` and `lock_cpu_demand` are
///    what every attempt asks for and pays.
///  - `Txn* Decide(Txn* txn)`: the active transaction blocking `txn`, or
///    null to grant. The engine attributes a refusal to the contention
///    profiler here.
///  - `void OnGranted(Txn*)`, `void OnReleased(Txn*)`: the engine's lock
///    state follows the active list.
///  - `int64_t AdmissionCap() const`: the most transactions that may hold
///    locks or have a request in flight; 0 for no cap.
///  - `int64_t LockedGranules() const`: lock occupancy for the profiler.
///  - `void CheckConsistency() const`: the deep audit at every quiescent
///    point; it starts with this protocol's `CheckConsistency`.
///  - Optional `void Execute(Txn*)`: the engine's own execution step in
///    place of `ForkJoin`, chosen at compile time. It keeps between 1 and
///    `params.pu` jobs outstanding in `subtxns_remaining` and calls
///    `Complete` when the work is done. Such an engine records no phase
///    decomposition beyond its pending and lock-wait spans.
///
/// `Txn` provides what `ForkJoin` and `TxnPool` need, plus `arrival_time`
/// and `blocked` (the transactions it blocks).
template <typename Engine, typename Txn>
class ConservativeProtocol {
 public:
  /// `engine` and `rng` (the run's stream, which the think time draws
  /// from) must outlive the protocol; the sinks are as for `EngineProbe`.
  /// `serialize_lock_manager` processes one lock request at a time, else
  /// requests are pipelined. `requeue_blocked_at_tail` appends released
  /// transactions to the pending queue, else they are prepended (the
  /// retry-immediately policy).
  ConservativeProtocol(Engine* engine, Rng* rng, const obs::Hooks& hooks,
                       const fault::CellWatchdog* watchdog,
                       bool serialize_lock_manager,
                       bool requeue_blocked_at_tail)
      : engine_(engine),
        rng_(rng),
        probe_(hooks, watchdog),
        serialize_lock_manager_(serialize_lock_manager),
        requeue_blocked_at_tail_(requeue_blocked_at_tail) {}

  ConservativeProtocol(const ConservativeProtocol&) = delete;
  ConservativeProtocol& operator=(const ConservativeProtocol&) = delete;

  /// Starts the engine's one run and the wall clock its run profile
  /// reports. Fails if the engine already ran.
  Status Begin() {
    if (ran_) {
      return Status::FailedPrecondition("Run() may only be called once");
    }
    ran_ = true;
    wall_timer_.Reset();
    return Status::OK();
  }

  /// Runs the closed system of `cfg` (validated, and outliving the
  /// protocol) to `cfg.tmax` and returns its metrics. `imputed`: the
  /// engine has no real lock table (see `EngineProbe::Start`).
  SimulationMetrics Run(const model::SystemConfig& cfg, bool imputed) {
    cfg_ = &cfg;
    active_.reserve(static_cast<size_t>(cfg.ntrans));
    txns_.Reserve(static_cast<size_t>(cfg.ntrans) + 1);
    machine_.Build(cfg.npros);
    probe_.Start(&machine_, &stats_, cfg, imputed, /*counts_aborts=*/false);
    probe_.StartContentionTicks([this] { ContentionTick(); });
    stats_.Start(&machine_, cfg.warmup, &probe_);
    // "Initially, transactions arrive one time unit apart and they are put
    // on the pending queue."
    for (int64_t i = 0; i < cfg.ntrans; ++i) {
      machine_.sim().ScheduleAt(static_cast<double>(i), [this] { Arrive(); });
    }
    probe_.ArmWatchdog();
    machine_.sim().RunUntil(cfg.tmax);

    SimulationMetrics m = stats_.Collect(machine_, cfg.tmax);
    probe_.PublishRunProfile(wall_timer_.Seconds());
    return m;
  }

  /// Dispatches lock requests from the head of the pending queue while the
  /// lock manager and the admission cap allow, then audits. Call it
  /// whenever the cap may have loosened.
  void Pump() {
    const int64_t cap = engine_->AdmissionCap();
    while (!pending_.empty() &&
           (!serialize_lock_manager_ || in_flight_ == 0) &&
           (cap == 0 || static_cast<int64_t>(active_.size()) + in_flight_ <
                            cap)) {
      Txn* txn = pending_.front();
      pending_.pop_front();
      UpdateQueueStats();
      LeavePending(txn);
    }
    if (sim::invariants::DeepAuditEnabled()) engine_->CheckConsistency();
  }

  /// Closed-system conservation audit, after the machine's own: every
  /// live transaction is pending, paying lock cost, blocked behind an
  /// active transaction, or active; the blocked count matches the
  /// blockers' lists; each active transaction has between 1 and `pu`
  /// jobs (sub-transactions under `ForkJoin`) outstanding.
  void CheckConsistency() const {
    machine_.CheckConsistency();
    GRANULOCK_AUDIT_CHECK_GE(in_flight_, 0);
    GRANULOCK_AUDIT_CHECK_GE(blocked_count_, 0);
    GRANULOCK_AUDIT_CHECK_EQ(
        txns_.live(), pending_.size() + static_cast<size_t>(in_flight_) +
                          static_cast<size_t>(blocked_count_) + active_.size())
        << "live=" << txns_.live() << " pending=" << pending_.size()
        << " in_lock=" << in_flight_ << " blocked=" << blocked_count_
        << " active=" << active_.size();
    size_t blocked_from_lists = 0;
    for (const Txn* txn : active_) {
      blocked_from_lists += txn->blocked.size();
      GRANULOCK_AUDIT_CHECK_GT(txn->subtxns_remaining, 0)
          << "active txn " << txn->id << " has no jobs left";
      GRANULOCK_AUDIT_CHECK_LE(txn->subtxns_remaining, txn->params.pu)
          << "active txn " << txn->id;
      // Conservative locking: only lock holders block others, so the
      // waits-for relation has depth one and is trivially acyclic.
      for (const Txn* waiter : txn->blocked) {
        GRANULOCK_AUDIT_CHECK(waiter->blocked.empty())
            << "blocked txn " << waiter->id
            << " blocks others: waits-for chain under conservative locking";
      }
    }
    GRANULOCK_AUDIT_CHECK_EQ(static_cast<size_t>(blocked_count_),
                             blocked_from_lists);
  }

  sim::Machine& machine() { return machine_; }
  const RunStats& stats() const { return stats_; }
  EngineProbe& probe() { return probe_; }
  TxnPool<Txn>& txns() { return txns_; }
  /// The lock holders, in grant order.
  const std::vector<Txn*>& active() const { return active_; }

  /// Ends the work of active `txn`: it releases its locks and the
  /// transactions it blocks, and a fresh transaction replaces it. The
  /// execution step calls it when the work is done.
  void Complete(Txn* txn) {
    auto it = std::find(active_.begin(), active_.end(), txn);
    GRANULOCK_CHECK(it != active_.end());
    active_.erase(it);
    engine_->OnReleased(txn);

    const double now = machine_.Now();
    if constexpr (EngineExecutes()) {
      stats_.Complete(now - txn->arrival_time);
    } else {
      stats_.Complete(now - txn->arrival_time,
                      txn->clock.At(now, txn->params.pu));
      probe_.SyncWaits(txn->id, txn->sub_cpu_done);
    }
    probe_.Completed(txn->id, txn->arrival_time,
                     EngineExecutes() ? 0 : txn->params.pu,
                     static_cast<int64_t>(txn->blocked.size()));

    // Release the transactions this one was blocking. Their blocked stint
    // counts as lock wait (they are still paying for the denied request).
    blocked_count_ -= static_cast<int64_t>(txn->blocked.size());
    for (Txn* released : txn->blocked) {
      released->clock.lock_wait += now - released->clock.lock_since;
      probe_.Unblocked(released->id, released->clock.lock_since);
      Enqueue(released, requeue_blocked_at_tail_);
    }
    txn->blocked.clear();

    // Closed system: a fresh transaction replaces the completed one, after
    // the terminal's think time.
    if (cfg_->think_time > 0.0) {
      machine_.sim().ScheduleAfter(rng_->Exponential(cfg_->think_time),
                                   [this] { Arrive(); });
    } else {
      Enqueue(NewTransaction(), /*at_tail=*/true);
    }

    txns_.Release(txn);
    UpdateQueueStats();
    Pump();
  }

 private:
  friend struct AuditTestPeer;  // invariants_test corrupts state through it

  /// A fresh transaction enters the pending queue.
  void Arrive() {
    Enqueue(NewTransaction(), /*at_tail=*/true);
    Pump();
  }

  Txn* NewTransaction() {
    Txn* txn = engine_->CreateTransaction();
    txn->id = next_txn_id_++;
    txn->arrival_time = machine_.Now();
    probe_.Created(txn->id, txn->params.nu);
    return txn;
  }

  void Enqueue(Txn* txn, bool at_tail) {
    txn->clock.pending_since = machine_.Now();
    if (at_tail) {
      pending_.push_back(txn);
    } else {
      pending_.push_front(txn);
    }
    UpdateQueueStats();
  }

  void UpdateQueueStats() {
    stats_.UpdateQueues(machine_.Now(), static_cast<int64_t>(active_.size()),
                        blocked_count_, static_cast<int64_t>(pending_.size()));
  }

  /// True when the engine supplies its own execution step.
  static constexpr bool EngineExecutes() {
    return requires(Engine* engine, Txn* txn) { engine->Execute(txn); };
  }

  /// `txn` leaves the head of the pending queue: it requests its locks,
  /// or, with none to set, starts work at once.
  void LeavePending(Txn* txn) {
    const double now = machine_.Now();
    txn->clock.pending_wait += now - txn->clock.pending_since;
    txn->clock.lock_since = now;
    probe_.LeftPending(txn->id, txn->clock.pending_since);
    if (txn->params.lu == 0) {
      StartWork(txn);
      return;
    }
    ++in_flight_;
    stats_.CountLockRequest();
    probe_.LockRequested(txn->id, txn->params.lu);
    // The request is decided once every node has done its share.
    const double npros = static_cast<double>(cfg_->npros);
    machine_.PayLockCost(txn->params.lock_io_demand / npros,
                         txn->params.lock_cpu_demand / npros,
                         [this, txn] { FinishLockRequest(txn); });
  }

  void FinishLockRequest(Txn* txn) {
    --in_flight_;
    GRANULOCK_DCHECK_GE(in_flight_, 0)
        << "lock request for txn " << txn->id
        << " finished more often than it began";
    if (Txn* blocker = engine_->Decide(txn)) {
      stats_.CountLockDenial();
      probe_.LockDenied(txn->id, static_cast<int64_t>(blocker->id));
      blocker->blocked.push_back(txn);
      ++blocked_count_;
      UpdateQueueStats();
    } else {
      probe_.LockGranted(txn->id, txn->params.lu);
      txn->clock.lock_wait += machine_.Now() - txn->clock.lock_since;
      probe_.WorkStarted(txn->id, txn->clock.lock_since);
      StartWork(txn);
    }
    Pump();
  }

  /// `txn` joins the active list and runs its execution step.
  void StartWork(Txn* txn) {
    active_.push_back(txn);
    engine_->OnGranted(txn);
    UpdateQueueStats();
    if constexpr (EngineExecutes()) {
      engine_->Execute(txn);
    } else {
      const double pu = static_cast<double>(txn->params.pu);
      ForkJoin(&machine_, &probe_, txn, txn->params.io_demand / pu,
               txn->params.cpu_demand / pu, [this](Txn* t) { Complete(t); });
    }
  }

  /// One periodic contention-profiler sample (observer event; scheduled
  /// only with a profiler attached).
  void ContentionTick() {
    std::vector<std::pair<uint64_t, uint64_t>> edges;
    for (const Txn* holder : active_) {
      for (const Txn* waiter : holder->blocked) {
        edges.emplace_back(waiter->id, holder->id);
      }
    }
    probe_.ContentionSample(std::move(edges), engine_->LockedGranules());
  }

  Engine* engine_;
  Rng* rng_;
  const model::SystemConfig* cfg_ = nullptr;

  sim::Machine machine_;
  RunStats stats_;
  EngineProbe probe_;
  TxnPool<Txn> txns_;

  const bool serialize_lock_manager_;
  const bool requeue_blocked_at_tail_;

  std::deque<Txn*> pending_;
  std::vector<Txn*> active_;  // holding locks, running sub-transactions
  int64_t blocked_count_ = 0;
  int64_t in_flight_ = 0;  // lock requests paying their cost
  uint64_t next_txn_id_ = 1;
  bool ran_ = false;
  WallTimer wall_timer_;
};

}  // namespace granulock::core

#endif  // GRANULOCK_CORE_CONSERVATIVE_PROTOCOL_H_
