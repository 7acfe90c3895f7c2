#include "core/granularity_simulator.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/fork_join.h"
#include "sim/invariants.h"
#include "util/logging.h"
#include "util/wall_clock.h"

namespace granulock::core {

/// One live transaction. `params` is drawn once at creation; `blocked`
/// lists the transactions this one is currently blocking.
struct GranularitySimulator::Txn {
  /// Scratch vectors draw from the run's arena: they grow to steady-state
  /// capacity once and are reclaimed wholesale when the replication's
  /// arena resets, so pooled reuse never touches the heap.
  explicit Txn(util::Arena* arena)
      : blocked(util::ArenaAllocator<Txn*>(arena)),
        sub_cpu_done(
            util::ArenaAllocator<std::pair<int32_t, double>>(arena)) {}

  uint64_t id = 0;
  workload::TransactionParams params;
  double arrival_time = 0.0;  // first entry into the pending queue
  int64_t subtxns_remaining = 0;
  int64_t lock_fanin_remaining = 0;  // sim::Machine::PayLockCost counter
  std::vector<Txn*, util::ArenaAllocator<Txn*>> blocked;

  PhaseClock clock;  // phase accounting, always on
  // (node, cpu-done) per sub-transaction; filled only when a SpanRecorder
  // is attached, to emit the sync spans at completion.
  std::vector<std::pair<int32_t, double>,
              util::ArenaAllocator<std::pair<int32_t, double>>>
      sub_cpu_done;

  /// Freshly-constructed state, vectors' capacity kept (core::TxnPool).
  void Reset() {
    id = 0;
    arrival_time = 0.0;
    subtxns_remaining = 0;
    lock_fanin_remaining = 0;
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
      probe_(options_.obs, options_.trace, options_.watchdog) {}

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
  if (ran_) {
    return Status::FailedPrecondition("Run() may only be called once");
  }
  ran_ = true;
  const WallTimer wall_timer;
  GRANULOCK_RETURN_NOT_OK(cfg_.Validate());
  GRANULOCK_RETURN_NOT_OK(spec_.Validate(cfg_));
  if (options_.arena != nullptr) {
    arena_ = options_.arena;
  } else {
    owned_arena_ = std::make_unique<util::Arena>();
    arena_ = owned_arena_.get();
  }
  txn_factory_.emplace(cfg_, spec_);
  if (options_.max_active < 0) {
    return Status::InvalidArgument("max_active must be >= 0");
  }
  if (options_.adaptive_admission) {
    if (options_.adaptation_interval <= 0.0) {
      return Status::InvalidArgument("adaptation_interval must be positive");
    }
    if (options_.target_denial_rate <= 0.0 ||
        options_.target_denial_rate >= 1.0) {
      return Status::InvalidArgument("target_denial_rate must be in (0,1)");
    }
    adaptive_cap_ = cfg_.ntrans;  // start permissive, tighten on evidence
    machine_.sim().ScheduleAt(options_.adaptation_interval,
                              [this] { AdaptAdmissionCap(); });
  }

  const size_t ntrans = static_cast<size_t>(cfg_.ntrans);
  active_.reserve(ntrans);
  txns_.Reserve(ntrans + 1);
  machine_.Build(cfg_.npros);
  probe_.Start(&machine_, &stats_, cfg_, /*imputed=*/true,
               /*counts_aborts=*/false);
  probe_.StartContentionTicks([this] { ContentionTick(); });
  stats_.Start(&machine_, cfg_.warmup, &probe_);
  // "Initially, transactions arrive one time unit apart and they are put on
  // the pending queue."
  for (int64_t i = 0; i < cfg_.ntrans; ++i) {
    machine_.sim().ScheduleAt(static_cast<double>(i), [this] {
      EnqueuePending(CreateTransaction(machine_.Now()), /*at_tail=*/true);
      PumpLockManager();
    });
  }
  probe_.ArmWatchdog();
  machine_.sim().RunUntil(cfg_.tmax);

  SimulationMetrics m = stats_.Collect(machine_, cfg_.tmax);
  probe_.PublishRunProfile(wall_timer.Seconds());
  return m;
}

void GranularitySimulator::ContentionTick() {
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (const Txn* holder : active_) {
    for (const Txn* waiter : holder->blocked) {
      edges.emplace_back(waiter->id, holder->id);
    }
  }
  // The probabilistic engine has no lock table; occupancy is estimated
  // from the locks the active transactions nominally hold.
  probe_.ContentionSample(std::move(edges), active_lu_total_);
}

GranularitySimulator::Txn* GranularitySimulator::CreateTransaction(
    double arrival_time) {
  Txn* txn = txns_.Acquire(arena_);
  txn->id = next_txn_id_++;
  txn_factory_->Generate(rng_, &txn->params);
  txn->arrival_time = arrival_time;
  probe_.Created(txn->id, txn->params.nu);
  return txn;
}

void GranularitySimulator::EnqueuePending(Txn* txn, bool at_tail) {
  txn->clock.pending_since = machine_.Now();
  if (at_tail) {
    pending_.push_back(txn);
  } else {
    pending_.push_front(txn);
  }
  UpdateQueueStats();
}

void GranularitySimulator::UpdateQueueStats() {
  stats_.UpdateQueues(machine_.Now(), static_cast<int64_t>(active_.size()),
                      blocked_count_, static_cast<int64_t>(pending_.size()));
}

void GranularitySimulator::AdaptAdmissionCap() {
  // AIMD on the multiprogramming level: denials waste lock-processing
  // capacity (the cost is charged whether or not the locks are granted),
  // so a high denial rate means too many transactions are competing.
  const RunStats::Counts& counts = stats_.counts();
  const int64_t requests = counts.lock_requests - window_requests_;
  const int64_t denials = counts.lock_denials - window_denials_;
  window_requests_ = counts.lock_requests;
  window_denials_ = counts.lock_denials;
  if (requests > 0) {
    const double rate =
        static_cast<double>(denials) / static_cast<double>(requests);
    if (rate > options_.target_denial_rate) {
      adaptive_cap_ = std::max<int64_t>(1, (adaptive_cap_ * 3) / 4);
    } else if (rate < 0.5 * options_.target_denial_rate) {
      adaptive_cap_ = std::min(cfg_.ntrans, adaptive_cap_ + 1);
      PumpLockManager();  // the looser cap may admit immediately
    }
  }
  if (machine_.Now() + options_.adaptation_interval <= cfg_.tmax) {
    machine_.sim().ScheduleAfter(options_.adaptation_interval,
                                 [this] { AdaptAdmissionCap(); });
  }
}

void GranularitySimulator::PumpLockManager() {
  const int64_t cap =
      options_.adaptive_admission ? adaptive_cap_ : options_.max_active;
  while (!pending_.empty() &&
         (!options_.serialize_lock_manager ||
          outstanding_lock_requests_ == 0) &&
         (cap == 0 ||
          static_cast<int64_t>(active_.size()) + outstanding_lock_requests_ <
              cap)) {
    Txn* txn = pending_.front();
    pending_.pop_front();
    UpdateQueueStats();
    BeginLockRequest(txn);
  }
  if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
}

void GranularitySimulator::CheckConsistency() const {
  GRANULOCK_AUDIT_CHECK_GE(outstanding_lock_requests_, 0);
  GRANULOCK_AUDIT_CHECK_GE(blocked_count_, 0);
  // Closed system: every live transaction is pending, paying lock cost,
  // blocked behind an active transaction, or active — nowhere else.
  GRANULOCK_AUDIT_CHECK_EQ(
      txns_.live(),
      pending_.size() + static_cast<size_t>(outstanding_lock_requests_) +
          static_cast<size_t>(blocked_count_) + active_.size())
      << "live=" << txns_.live() << " pending=" << pending_.size()
      << " in_lock=" << outstanding_lock_requests_
      << " blocked=" << blocked_count_ << " active=" << active_.size();
  // The blocked count is exactly the sum of the blockers' lists, and
  // only active (lock-holding) transactions may block others.
  size_t blocked_from_lists = 0;
  int64_t lu_total = 0;
  for (const Txn* txn : active_) {
    blocked_from_lists += txn->blocked.size();
    lu_total += txn->params.lu;
    GRANULOCK_AUDIT_CHECK_GT(txn->subtxns_remaining, 0)
        << "active txn " << txn->id << " has no sub-transactions left";
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
  // The incrementally maintained conflict-scan total never drifts from
  // the ground truth it summarizes.
  GRANULOCK_AUDIT_CHECK_EQ(active_lu_total_, lu_total)
      << "active_lu_total_ drifted from the sum over active_";
}

void GranularitySimulator::BeginLockRequest(Txn* txn) {
  ++outstanding_lock_requests_;
  stats_.CountLockRequest();
  const double now = machine_.Now();
  txn->clock.pending_wait += now - txn->clock.pending_since;
  txn->clock.lock_since = now;
  probe_.LockRequested(txn->id, txn->params.lu, txn->clock.pending_since);
  // Lock-table I/O then CPU, shared equally by all nodes at preemptive
  // priority; the request is decided once every node has done its share.
  const double npros = static_cast<double>(cfg_.npros);
  machine_.PayLockCost(&txn->lock_fanin_remaining,
                       txn->params.lock_io_demand / npros,
                       txn->params.lock_cpu_demand / npros,
                       [this, txn] { FinishLockRequest(txn); });
}

void GranularitySimulator::FinishLockRequest(Txn* txn) {
  --outstanding_lock_requests_;
  GRANULOCK_DCHECK_GE(outstanding_lock_requests_, 0)
      << "lock request for txn " << txn->id
      << " finished more often than it began";
  // Conflict draw over the active transactions' lock counts, equivalent to
  // `conflict_.DrawBlocker` on a vector of their `lu` values but without
  // materializing that vector: the running `active_lu_total_` decides the
  // common no-conflict case with a single comparison. The early-out is
  // exact (not a shortcut) while the total stays below 2^53, where every
  // partial sum the scan would form is an exactly-represented integer; a
  // larger total falls back to the scan so the outcome is still
  // bit-identical to the reference loop.
  int blocker = -1;
  if (!active_.empty()) {
    const double scaled = conflict_.DrawScaledVariate(rng_);
    if (active_lu_total_ >= (int64_t{1} << 53) ||
        scaled <= static_cast<double>(active_lu_total_)) {
      double cum = 0.0;
      for (size_t j = 0; j < active_.size(); ++j) {
        cum += static_cast<double>(active_[j]->params.lu);
        if (scaled <= cum) {
          blocker = static_cast<int>(j);
          break;
        }
      }
    }
  }
  if (blocker >= 0) {
    stats_.CountLockDenial();
    Txn* blocking = active_[static_cast<size_t>(blocker)];
    probe_.LockDenied(txn->id, static_cast<int64_t>(blocking->id));
    blocking->blocked.push_back(txn);
    ++blocked_count_;
    if (auto* prof = probe_.contention()) {
      // Granule attribution is imputed (the Ries–Stonebraker model names
      // no granule): drawn uniformly from a profiler-private stream.
      // Conservative X-only locking: depth is always 1.
      const int64_t granule =
          cfg_.ltot > 1 ? contention_rng_.UniformInt(0, cfg_.ltot - 1) : 0;
      prof->OnBlock(txn->id, granule, lockmgr::LockMode::kX,
                    lockmgr::LockMode::kX, /*chain_depth=*/1, machine_.Now());
    }
    UpdateQueueStats();
  } else {
    probe_.LockGranted(txn->id, txn->params.lu);
    Grant(txn);
  }
  PumpLockManager();
}

void GranularitySimulator::Grant(Txn* txn) {
  active_.push_back(txn);
  active_lu_total_ += txn->params.lu;
  txn->clock.lock_wait += machine_.Now() - txn->clock.lock_since;
  probe_.WorkStarted(txn->id, txn->clock.lock_since);
  if (auto* prof = probe_.contention()) {
    // Aggregate only: the imputed engine cannot attribute grants to real
    // granules, so per-granule grant counts stay 0 here.
    prof->OnGrantTotal(txn->params.lu);
  }
  UpdateQueueStats();
  const double pu = static_cast<double>(txn->params.pu);
  ForkJoin(&machine_, &probe_, txn, txn->params.io_demand / pu,
           txn->params.cpu_demand / pu, [this](Txn* t) { Complete(t); });
}

void GranularitySimulator::Complete(Txn* txn) {
  auto it = std::find(active_.begin(), active_.end(), txn);
  GRANULOCK_CHECK(it != active_.end());
  active_.erase(it);
  active_lu_total_ -= txn->params.lu;

  const double now = machine_.Now();
  stats_.Complete(now - txn->arrival_time, txn->clock.At(now, txn->params.pu));
  probe_.SyncWaits(txn->id, txn->sub_cpu_done);
  probe_.Completed(txn->id, txn->arrival_time, txn->params.pu,
                   static_cast<int64_t>(txn->blocked.size()));

  // Release the transactions this one was blocking. Their blocked stint
  // counts as lock wait (they are still paying for the denied request).
  blocked_count_ -= static_cast<int64_t>(txn->blocked.size());
  for (Txn* released : txn->blocked) {
    released->clock.lock_wait += now - released->clock.lock_since;
    probe_.Unblocked(released->id, released->clock.lock_since);
    EnqueuePending(released, options_.requeue_blocked_at_tail);
  }
  txn->blocked.clear();

  // Closed system: a fresh transaction replaces the completed one, after
  // the terminal's think time (0 in the paper's model).
  if (cfg_.think_time > 0.0) {
    machine_.sim().ScheduleAfter(rng_.Exponential(cfg_.think_time), [this] {
      EnqueuePending(CreateTransaction(machine_.Now()), /*at_tail=*/true);
      PumpLockManager();
    });
  } else {
    EnqueuePending(CreateTransaction(machine_.Now()), /*at_tail=*/true);
  }

  txns_.Release(txn);
  UpdateQueueStats();
  PumpLockManager();
}

}  // namespace granulock::core
