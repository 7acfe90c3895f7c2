#include "db/incremental_simulator.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/fork_join.h"
#include "db/granule_selector.h"
#include "sim/invariants.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/wall_clock.h"

namespace granulock::db {

using lockmgr::LockMode;
using lockmgr::WaitQueueLockTable;

/// One live transaction under claim-as-needed locking. The granule list is
/// acquired in (shuffled) order; `next_lock` indexes the stage being
/// worked on.
struct IncrementalSimulator::Txn {
  lockmgr::TxnId id = 0;
  workload::TransactionParams params;
  double arrival_time = 0.0;
  LockMode mode = LockMode::kX;
  std::vector<int64_t> granules;  // acquisition order (shuffled)
  size_t next_lock = 0;
  int64_t subtxns_remaining = 0;  // current stage's fork-join
  int64_t restarts = 0;
  /// Wounded by a contention policy while running: aborts at its next
  /// safe point (lock cost paid / stage join) instead of proceeding.
  bool doomed = false;

  // Phase accounting (always on). There is no pending queue:
  // `clock.pending_wait` is the time parked by the admission controller
  // (0 when it is disabled), and `phase_lock_wait` absorbs everything
  // between stages: lock-cost service, wait-queue time, and deadlock
  // abort/backoff. Each stage forks (`clock.grant_time` is the stage's
  // grant) and its io/cpu/sync sub-spans tile [stage grant, stage end];
  // re-run stages after an abort occupy fresh wall-clock, so the per-txn
  // identity lock + io/pu + cpu/pu + sync/pu = response still holds.
  core::PhaseClock clock;
  double sync_span_sum = 0.0;
  // (node, cpu-done) of the current stage; spans-attached runs only.
  std::vector<std::pair<int32_t, double>> sub_cpu_done;

  /// Freshly-constructed state, vectors' capacity kept (core::TxnPool).
  void Reset() {
    id = 0;
    arrival_time = 0.0;
    mode = LockMode::kX;
    granules.clear();
    next_lock = 0;
    subtxns_remaining = 0;
    restarts = 0;
    doomed = false;
    clock = {};
    sync_span_sum = 0.0;
    sub_cpu_done.clear();
  }
};

IncrementalSimulator::IncrementalSimulator(model::SystemConfig cfg,
                                           workload::WorkloadSpec spec,
                                           uint64_t seed, Options options)
    : cfg_(std::move(cfg)),
      spec_(std::move(spec)),
      options_(options),
      rng_(seed),
      probe_(options_.obs, options_.watchdog),
      seed_(seed) {}

IncrementalSimulator::IncrementalSimulator(model::SystemConfig cfg,
                                           workload::WorkloadSpec spec,
                                           uint64_t seed)
    : IncrementalSimulator(std::move(cfg), std::move(spec), seed, Options{}) {}

IncrementalSimulator::~IncrementalSimulator() = default;

/// The read-only per-transaction view handed to contention policies.
class IncrementalSimulator::PolicyDirectory final : public TxnDirectory {
 public:
  explicit PolicyDirectory(const IncrementalSimulator* self) : self_(self) {}
  int64_t RestartsOf(lockmgr::TxnId txn) const override {
    const Txn* found = self_->txn_by_id_.Find(txn);
    return found == nullptr ? 0 : found->restarts;
  }
  bool IsDoomed(lockmgr::TxnId txn) const override {
    const Txn* found = self_->txn_by_id_.Find(txn);
    return found != nullptr && found->doomed;
  }

 private:
  const IncrementalSimulator* self_;
};

Result<core::SimulationMetrics> IncrementalSimulator::RunOnce(
    const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
    uint64_t seed, Options options) {
  IncrementalSimulator simulator(cfg, spec, seed, options);
  return simulator.Run();
}

Result<core::SimulationMetrics> IncrementalSimulator::RunOnce(
    const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
    uint64_t seed) {
  return RunOnce(cfg, spec, seed, Options{});
}

Result<core::SimulationMetrics> IncrementalSimulator::Run() {
  if (ran_) {
    return Status::FailedPrecondition("Run() may only be called once");
  }
  ran_ = true;
  const WallTimer wall_timer;
  GRANULOCK_RETURN_NOT_OK(cfg_.Validate());
  GRANULOCK_RETURN_NOT_OK(spec_.Validate(cfg_));
  txn_factory_.emplace(cfg_, spec_);
  // Negated ranges, so a NaN fails them.
  if (!(options_.read_fraction >= 0.0 && options_.read_fraction <= 1.0)) {
    return Status::InvalidArgument("read_fraction must be in [0, 1]");
  }
  if (!(options_.restart_delay > 0.0)) {
    return Status::InvalidArgument("restart_delay must be positive");
  }
  GRANULOCK_RETURN_NOT_OK(ValidateContentionOptions(
      options_.contention.governor, options_.contention.admission));
  policy_ = MakeContentionPolicy(options_.contention.policy);
  governor_.emplace(options_.restart_delay, options_.contention.governor);

  table_ = std::make_unique<WaitQueueLockTable>(cfg_.ltot);
  machine_.Build(cfg_.npros);
  probe_.Start(&machine_, &stats_, cfg_, /*imputed=*/false,
               /*counts_aborts=*/true);
  probe_.StartContentionTicks([this] { ContentionTick(); });
  stats_.Start(&machine_, cfg_.warmup, &probe_);
  if (options_.contention.admission.enabled) {
    // A *regular* event chain: the controller changes which transactions
    // run and when, by design. With admission disabled no controller
    // exists and no event is ever scheduled, so the run is bit-identical
    // to one built before the controller did.
    admission_.emplace(options_.contention.admission, cfg_.ntrans);
    const double iv = options_.contention.admission.interval;
    if (iv <= cfg_.tmax) {
      machine_.sim().ScheduleAt(iv, [this] { AdmissionTick(); });
    }
  }

  for (int64_t i = 0; i < cfg_.ntrans; ++i) {
    machine_.sim().ScheduleAt(static_cast<double>(i), [this] {
      AdmitOrHold(CreateTransaction(machine_.Now()));
    });
  }
  probe_.ArmWatchdog();
  machine_.sim().RunUntil(cfg_.tmax);

  core::SimulationMetrics m = stats_.Collect(machine_, cfg_.tmax);
  // Admission parking is the claim-as-needed analogue of the conservative
  // engines' pending queue, tracked as such; without the controller there
  // is none and both averages are 0.
  m.avg_admission_held = m.avg_pending;
  probe_.PublishRunProfile(wall_timer.Seconds());
  return m;
}

void IncrementalSimulator::ContentionTick() {
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (const auto& [waiter, granule] : table_->WaitingRequests()) {
    for (const auto& holder : table_->Holders(granule)) {
      if (holder.txn != waiter) edges.emplace_back(waiter, holder.txn);
    }
  }
  probe_.ContentionSample(std::move(edges), table_->LockedGranules());
}

IncrementalSimulator::Txn* IncrementalSimulator::CreateTransaction(
    double arrival_time) {
  Txn* txn = txns_.Acquire();
  txn->id = next_txn_id_++;
  txn_factory_->Generate(rng_, &txn->params);
  txn->arrival_time = arrival_time;
  txn->mode =
      rng_.Bernoulli(options_.read_fraction) ? LockMode::kS : LockMode::kX;
  SelectGranules(spec_.placement, cfg_.dbsize, cfg_.ltot, txn->params.nu,
                 rng_, &txn->granules);
  // Claim-as-needed acquires each lock when the data is first touched, so
  // the acquisition order follows the ACCESS order:
  //  * best placement models a sequential scan — scan order. The selected
  //    run may wrap past the last granule; rotate the sorted set so it
  //    starts after the wrap gap (wrapped ranges are the only way two
  //    scans can deadlock).
  //  * random/worst placement model random access — a random order, which
  //    is what makes hold-and-wait cycles (deadlocks) common there.
  if (spec_.placement == model::Placement::kBest) {
    for (size_t i = 0; i + 1 < txn->granules.size(); ++i) {
      if (txn->granules[i + 1] - txn->granules[i] > 1) {
        std::rotate(txn->granules.begin(), txn->granules.begin() + i + 1,
                    txn->granules.end());
        break;
      }
    }
  } else {
    rng_.Shuffle(txn->granules);
  }
  probe_.Created(txn->id, txn->params.nu);
  txn_by_id_.Insert(txn->id, txn);
  return txn;
}

void IncrementalSimulator::DestroyTransaction(Txn* txn) {
  txn_by_id_.Erase(txn->id);
  txns_.Release(txn);
}

void IncrementalSimulator::UpdateQueueStats() {
  stats_.UpdateQueues(machine_.Now(), running_count_, waiting_count_);
}

void IncrementalSimulator::StartTransaction(Txn* txn) {
  txn->next_lock = 0;
  txn->clock.lock_since = machine_.Now();
  ++running_count_;
  UpdateQueueStats();
  RequestNextLock(txn);
}

void IncrementalSimulator::RequestNextLock(Txn* txn) {
  GRANULOCK_CHECK_LT(txn->next_lock, txn->granules.size());
  stats_.CountLockRequest();
  probe_.LockRequested(txn->id, txn->granules[txn->next_lock]);
  // One lock's request/set/release cost, shared by all processors at
  // preemptive priority (same sharing rule as the conservative engines,
  // scaled to a single lock).
  const double npros = static_cast<double>(cfg_.npros);
  machine_.PayLockCost(cfg_.liotime / npros, cfg_.lcputime / npros,
                       [this, txn] { OnLockCostPaid(txn); });
}

void IncrementalSimulator::OnLockCostPaid(Txn* txn) {
  if (txn->doomed) {
    // Wounded while paying the lock cost: abort here, before touching the
    // table again (a doomed transaction must never queue).
    AbortTxn(txn, /*waiting=*/false);
    if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
    return;
  }
  const int64_t granule = txn->granules[txn->next_lock];
  const WaitQueueLockTable::AcquireResult result =
      table_->Acquire(txn->id, granule, txn->mode);
  if (result == WaitQueueLockTable::AcquireResult::kGranted) {
    probe_.LockGranted(txn->id, granule);
    if (auto* prof = probe_.contention()) prof->OnGrant(granule);
    DoStageWork(txn);
    return;
  }
  // Queued: the transaction now waits while holding its earlier locks.
  stats_.CountLockDenial();
  probe_.LockDenied(txn->id, granule);
  --running_count_;
  ++waiting_count_;
  UpdateQueueStats();
  ResolveConflict(txn, granule);
  if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
}

void IncrementalSimulator::ResolveConflict(Txn* txn, int64_t granule) {
  const ConflictRequest req{txn->id, granule, txn->mode};
  const PolicyDirectory dir(this);
  bool requester_gone = false;
  // Re-ask while the requester stays queued: aborting one victim can
  // expose a new conflict shape (e.g. the next holder in a cycle). Each
  // round either aborts/dooms at least one victim or stops, so the loop
  // terminates. Under the default detect policy the first round returns
  // either nothing (no cycle) or the requester — a single iteration,
  // bit-identical to the engine's historical hard-coded check.
  while (!requester_gone && table_->IsQueued(txn->id)) {
    policy_->OnBlock(req, *table_, dir, &victims_);
    MaybeInjectVictimFlip(seed_, &victims_);
    if (victims_.empty()) break;
    bool progressed = false;
    for (lockmgr::TxnId victim_id : victims_) {
      Txn* victim = txn_by_id_.Find(victim_id);
      if (victim == nullptr) {
        // Policies may only name live transactions (holders or waiters);
        // anything else is a policy bug — or an injected fault, which the
        // cell-retry harness must contain, so fail loudly rather than
        // corrupt state.
        throw std::runtime_error(StrFormat(
            "contention policy '%s' chose victim txn %llu which does not "
            "exist",
            ContentionPolicyName(policy_->kind()),
            (unsigned long long)victim_id));
      }
      if (victim->doomed) continue;
      const bool is_requester = victim == txn;
      if (table_->IsQueued(victim->id)) {
        progressed = true;
        AbortTxn(victim, /*waiting=*/true);
        if (is_requester) {
          requester_gone = true;
          break;
        }
      } else if (!is_requester) {
        // A running holder cannot be yanked mid-service: doom it so it
        // aborts at its next safe point (lock cost paid / stage join).
        progressed = true;
        victim->doomed = true;
      }
      // is_requester && !queued: a victim abort above already unblocked
      // the requester mid-round; nothing left to do.
    }
    if (!progressed) break;
  }
  if (!requester_gone && table_->IsQueued(txn->id)) {
    if (auto* prof = probe_.contention()) {
      // A genuine wait (not a victim abort): attribute it to the granule,
      // with the strongest mode held by the other holders (Supremum is
      // order-insensitive) and the length of the waits-for chain rebuilt
      // from the table's queues (holder sets shift as grants move, so
      // stored edges would go stale).
      LockMode held = LockMode::kNL;
      for (const auto& holder : table_->Holders(granule)) {
        if (holder.txn != txn->id) held = Supremum(held, holder.mode);
      }
      prof->OnBlock(txn->id, granule, txn->mode, held,
                    BuildWaitsForGraph(*table_).ChainDepthFrom(txn->id),
                    machine_.Now());
    }
  }
}

void IncrementalSimulator::CheckConsistency() const {
  machine_.CheckConsistency();
  GRANULOCK_AUDIT_CHECK_GE(running_count_, 0);
  GRANULOCK_AUDIT_CHECK_GE(waiting_count_, 0);
  GRANULOCK_AUDIT_CHECK_GE(in_backoff_, 0);
  GRANULOCK_AUDIT_CHECK_GE(admission_held_, 0);
  // Closed system: every live transaction is running, queued on a lock,
  // sleeping out a deadlock backoff, or parked by the admission
  // controller. Sacrificed transactions were replaced one-for-one, so
  // the identity survives terminal aborts.
  GRANULOCK_AUDIT_CHECK_EQ(
      txns_.live(),
      static_cast<size_t>(running_count_ + waiting_count_ + in_backoff_ +
                          admission_held_))
      << "live=" << txns_.live() << " running=" << running_count_
      << " waiting=" << waiting_count_ << " backoff=" << in_backoff_
      << " admission_held=" << admission_held_;
  GRANULOCK_AUDIT_CHECK_EQ(admission_queue_.size(),
                           static_cast<size_t>(admission_held_));
  GRANULOCK_AUDIT_CHECK_EQ(txn_by_id_.size(), txns_.live());
  GRANULOCK_AUDIT_CHECK_EQ(waiting_count_, table_->WaitingCount());
  table_->CheckConsistency();
  // Every lock holder is live: a dead holder's lock leaked at its commit,
  // abort or sacrifice.
  for (const lockmgr::TxnId holder : table_->HoldingTxns()) {
    GRANULOCK_AUDIT_CHECK(txn_by_id_.Find(holder) != nullptr)
        << "txn " << holder << " holds locks but is not live";
  }
  // A doomed transaction aborts at its next safe point and never queues;
  // a queued doomed transaction would deadlock against its own abort.
  for (const auto& [waiter, granule] : table_->WaitingRequests()) {
    const Txn* live = txn_by_id_.Find(waiter);
    GRANULOCK_AUDIT_CHECK(live != nullptr)
        << "queued txn " << waiter << " is not live";
    GRANULOCK_AUDIT_CHECK(live == nullptr || !live->doomed)
        << "doomed txn " << waiter << " is queued on granule " << granule;
  }
  // Acyclicity: every cycle is detected and broken (victim abort) at the
  // instant its closing edge would appear, so between events the
  // waits-for graph rebuilt from the table has no cycle.
  const lockmgr::WaitsForGraph graph = BuildWaitsForGraph(*table_);
  for (const auto& [waiter, granule] : table_->WaitingRequests()) {
    GRANULOCK_AUDIT_CHECK(graph.FindCycleFrom(waiter).empty())
        << "undetected deadlock cycle through txn " << waiter
        << " waiting on granule " << granule;
  }
}

void IncrementalSimulator::AbortTxn(Txn* txn, bool waiting) {
  ++txn->restarts;
  probe_.Aborted(txn->id, txn->restarts);
  if (waiting) {
    --waiting_count_;
  } else {
    --running_count_;  // doomed victim aborting at a safe point
  }
  const bool sacrifice = governor_->ShouldSacrifice(txn->restarts);
  stats_.CountAbort(sacrifice);
  if (!sacrifice) ++in_backoff_;
  if (auto* prof = probe_.contention()) {
    // Close any open wait (no-op for the usual instant-abort victim, whose
    // wait was never recorded as a genuine block).
    prof->OnUnblock(txn->id, machine_.Now());
  }
  txn->doomed = false;
  grants_.clear();
  table_->Abort(txn->id, &grants_);
  UpdateQueueStats();
  HandleGrants(grants_);
  if (sacrifice) {
    SacrificeTxn(txn);
    return;
  }
  // Restart from the first granule with the same parameters (all lock
  // costs are paid again) after a randomized backoff — restarting
  // immediately would re-form the same cycle under heavy contention and
  // livelock the system. The governor grows the mean with each restart
  // of the same transaction (and caps it) when configured; the factor-1
  // default collapses to the historical fixed-mean draw.
  machine_.sim().ScheduleAfter(
      governor_->BackoffDelay(txn->restarts, rng_), [this, txn] {
        --in_backoff_;
        ++running_count_;
        txn->next_lock = 0;
        UpdateQueueStats();
        RequestNextLock(txn);
        if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
      });
}

void IncrementalSimulator::SacrificeTxn(Txn* txn) {
  // Terminal abort: the restart budget is spent. Replace the victim with
  // a fresh transaction (same create-then-destroy order as Complete) so
  // the closed system stays closed.
  probe_.Sacrificed(txn->id);
  Txn* fresh = CreateTransaction(machine_.Now());
  DestroyTransaction(txn);
  AdmitOrHold(fresh);
}

void IncrementalSimulator::AdmitOrHold(Txn* txn) {
  if (!admission_) {
    StartTransaction(txn);
    return;
  }
  admission_queue_.push_back(txn);
  ++admission_held_;
  stats_.UpdatePending(machine_.Now(), admission_held_);
  ReleaseAdmitted();
}

void IncrementalSimulator::ReleaseAdmitted() {
  if (!admission_) return;
  while (!admission_queue_.empty() &&
         AdmittedCount() < admission_->target()) {
    Txn* txn = admission_queue_.front();
    admission_queue_.pop_front();
    --admission_held_;
    stats_.UpdatePending(machine_.Now(), admission_held_);
    txn->clock.pending_wait = machine_.Now() - txn->arrival_time;
    StartTransaction(txn);
  }
}

int64_t IncrementalSimulator::AdmittedCount() const {
  return running_count_ + waiting_count_ + in_backoff_;
}

void IncrementalSimulator::AdmissionTick() {
  // "Blocked" = contention-induced dead time: queued on a lock OR sleeping
  // out a restart backoff. Counting only lock waiters misses the dominant
  // thrashing mode of this engine, where deadlock victims spend the
  // collapse parked in backoff rather than in wait queues.
  const int64_t admitted = AdmittedCount();
  const double blocked_fraction =
      admitted > 0 ? static_cast<double>(waiting_count_ + in_backoff_) /
                         static_cast<double>(admitted)
                   : 0.0;
  admission_->Evaluate(blocked_fraction);
  // Raising the target admits parked work immediately; lowering it only
  // stops future admissions (running transactions are never preempted).
  ReleaseAdmitted();
  const double iv = options_.contention.admission.interval;
  if (machine_.Now() + iv <= cfg_.tmax) {
    machine_.sim().ScheduleAfter(iv, [this] { AdmissionTick(); });
  }
  if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
}

void IncrementalSimulator::HandleGrants(
    std::span<const lockmgr::TxnId> granted) {
  for (lockmgr::TxnId id : granted) {
    Txn* waiter = txn_by_id_.Find(id);
    GRANULOCK_CHECK(waiter != nullptr);
    --waiting_count_;
    ++running_count_;
    if (auto* prof = probe_.contention()) {
      prof->OnUnblock(waiter->id, machine_.Now());
      prof->OnGrant(waiter->granules[waiter->next_lock]);
    }
    UpdateQueueStats();
    DoStageWork(waiter);
  }
}

void IncrementalSimulator::DoStageWork(Txn* txn) {
  // Process this granule's share of the transaction's entities: the
  // entities are spread over the transaction's nodes (horizontal
  // partitioning spreads every granule across all disks), so each stage
  // fork-joins across the same node set.
  txn->clock.lock_wait += machine_.Now() - txn->clock.lock_since;
  probe_.WorkStarted(txn->id, txn->clock.lock_since);
  const double stages = static_cast<double>(txn->granules.size());
  const double pu = static_cast<double>(txn->params.pu);
  core::ForkJoin(&machine_, &probe_, txn,
                 txn->params.io_demand / (stages * pu),
                 txn->params.cpu_demand / (stages * pu),
                 [this](Txn* t) { OnStageDone(t); });
}

void IncrementalSimulator::OnStageDone(Txn* txn) {
  // Stage fork-join complete: every sub-stage's remaining time until now
  // is synchronization wait (zero for the last one to finish).
  const double now = machine_.Now();
  const double pu = static_cast<double>(txn->params.pu);
  txn->sync_span_sum += pu * now - txn->clock.cpu_done_sum;
  probe_.SyncWaits(txn->id, txn->sub_cpu_done);
  txn->sub_cpu_done.clear();
  if (txn->doomed) {
    // Wounded while processing this stage: abort at the join, after the
    // sync accounting above, instead of requesting the next lock. The
    // stage is fully accounted, so lock wait restarts now: the restart's
    // first grant must not count the stage again.
    txn->clock.lock_since = now;
    AbortTxn(txn, /*waiting=*/false);
    if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
    return;
  }
  ++txn->next_lock;
  if (txn->next_lock < txn->granules.size()) {
    txn->clock.lock_since = now;
    RequestNextLock(txn);
    return;
  }
  Complete(txn);
}

void IncrementalSimulator::Complete(Txn* txn) {
  grants_.clear();
  table_->ReleaseAll(txn->id, &grants_);
  --running_count_;
  const double now = machine_.Now();
  const double pu = static_cast<double>(txn->params.pu);
  stats_.Complete(now - txn->arrival_time,
                  {txn->clock.pending_wait, txn->clock.lock_wait,
                   txn->clock.io_span_sum / pu, txn->clock.cpu_span_sum / pu,
                   txn->sync_span_sum / pu});
  probe_.Completed(txn->id, txn->arrival_time, txn->params.pu,
                   static_cast<int64_t>(txn->granules.size()));
  UpdateQueueStats();
  HandleGrants(grants_);
  // A completion frees an MPL slot; drain the admission queue into it
  // (no-op when the controller is disabled or nothing is parked).
  ReleaseAdmitted();
  if (cfg_.think_time > 0.0) {
    machine_.sim().ScheduleAfter(rng_.Exponential(cfg_.think_time), [this] {
      AdmitOrHold(CreateTransaction(machine_.Now()));
    });
  } else {
    Txn* fresh = CreateTransaction(machine_.Now());
    DestroyTransaction(txn);
    AdmitOrHold(fresh);
    if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
    return;
  }
  DestroyTransaction(txn);
  if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
}

}  // namespace granulock::db
