#include "db/explicit_simulator.h"

#include <algorithm>
#include <utility>

#include "core/fork_join.h"
#include "sim/invariants.h"
#include "util/logging.h"
#include "util/wall_clock.h"

namespace granulock::db {

using lockmgr::HierRequest;
using lockmgr::LockMode;
using lockmgr::LockRequest;
using lockmgr::ObjectId;

namespace {

/// Maps a hierarchy object to the profiler's contention key space.
int64_t ContentionKeyOf(const ObjectId& object) {
  switch (object.level) {
    case ObjectId::Level::kGranule:
      return object.index;
    case ObjectId::Level::kFile:
      return obs::FileObjectKey(object.index);
    case ObjectId::Level::kRoot:
      return obs::kRootObjectKey;
  }
  return obs::kRootObjectKey;
}

/// One hierarchical request per granule, all in `mode`.
std::vector<HierRequest> GranuleRequests(const std::vector<int64_t>& granules,
                                         LockMode mode) {
  std::vector<HierRequest> requests;
  requests.reserve(granules.size());
  for (int64_t g : granules) {
    requests.push_back(HierRequest{ObjectId::Granule(g), mode});
  }
  return requests;
}

}  // namespace

/// One live transaction with its concrete lock set. The set is drawn once
/// (a transaction's data needs do not change across retries); the lock
/// *cost* is paid on every attempt, as in the paper.
struct ExplicitSimulator::Txn {
  lockmgr::TxnId id = 0;
  workload::TransactionParams params;
  double arrival_time = 0.0;
  int64_t subtxns_remaining = 0;
  int64_t lock_fanin_remaining = 0;  // sim::Machine::PayLockCost counter
  std::vector<Txn*> blocked;

  /// Granules this transaction locks (kFlat, or kHierarchical fine path).
  std::vector<int64_t> granules;
  /// True if this transaction takes one database-level lock instead.
  bool coarse = false;
  /// S for read-only transactions, X otherwise.
  LockMode mode = LockMode::kX;
  /// Locks actually set per attempt (drives the lock cost).
  double locks_set = 0.0;

  core::PhaseClock clock;  // phase accounting, always on
  std::vector<std::pair<int32_t, double>> sub_cpu_done;

  /// Freshly-constructed state, vectors' capacity kept (core::TxnPool).
  void Reset() {
    id = 0;
    arrival_time = 0.0;
    subtxns_remaining = 0;
    lock_fanin_remaining = 0;
    blocked.clear();
    granules.clear();
    coarse = false;
    mode = LockMode::kX;
    locks_set = 0.0;
    clock = {};
    sub_cpu_done.clear();
  }
};

ExplicitSimulator::ExplicitSimulator(model::SystemConfig cfg,
                                     workload::WorkloadSpec spec,
                                     uint64_t seed, Options options)
    : cfg_(std::move(cfg)),
      spec_(std::move(spec)),
      options_(options),
      rng_(seed),
      probe_(options_.obs, options_.trace, options_.watchdog) {}

ExplicitSimulator::ExplicitSimulator(model::SystemConfig cfg,
                                     workload::WorkloadSpec spec,
                                     uint64_t seed)
    : ExplicitSimulator(std::move(cfg), std::move(spec), seed, Options{}) {}

ExplicitSimulator::~ExplicitSimulator() = default;

Result<core::SimulationMetrics> ExplicitSimulator::RunOnce(
    const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
    uint64_t seed, Options options) {
  ExplicitSimulator simulator(cfg, spec, seed, options);
  return simulator.Run();
}

Result<core::SimulationMetrics> ExplicitSimulator::RunOnce(
    const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
    uint64_t seed) {
  return RunOnce(cfg, spec, seed, Options{});
}

Result<core::SimulationMetrics> ExplicitSimulator::Run() {
  if (ran_) {
    return Status::FailedPrecondition("Run() may only be called once");
  }
  ran_ = true;
  const WallTimer wall_timer;
  GRANULOCK_RETURN_NOT_OK(cfg_.Validate());
  GRANULOCK_RETURN_NOT_OK(spec_.Validate(cfg_));
  txn_factory_.emplace(cfg_, spec_);
  if (options_.read_fraction < 0.0 || options_.read_fraction > 1.0) {
    return Status::InvalidArgument("read_fraction must be in [0, 1]");
  }
  if (options_.coarse_threshold < 0) {
    return Status::InvalidArgument("coarse_threshold must be >= 0");
  }

  switch (options_.strategy) {
    case LockingStrategy::kFlat:
      flat_table_ = std::make_unique<lockmgr::LockTable>(cfg_.ltot);
      break;
    case LockingStrategy::kHierarchical: {
      if (options_.num_files < 1 || options_.num_files > cfg_.ltot) {
        return Status::InvalidArgument(
            "num_files must be in [1, ltot] for hierarchical locking");
      }
      if (options_.escalation_threshold < 0) {
        return Status::InvalidArgument(
            "escalation_threshold must be >= 0");
      }
      lockmgr::HierarchicalLockManager::Options hier;
      hier.num_granules = cfg_.ltot;
      hier.num_files = options_.num_files;
      hier.escalation_threshold = options_.escalation_threshold;
      hier_table_ =
          std::make_unique<lockmgr::HierarchicalLockManager>(hier);
      break;
    }
  }

  machine_.Build(cfg_.npros);
  probe_.Start(&machine_, &stats_, cfg_, /*imputed=*/false,
               /*counts_aborts=*/false);
  probe_.StartContentionTicks([this] { ContentionTick(); });
  stats_.Start(&machine_, cfg_.warmup, &probe_);
  for (int64_t i = 0; i < cfg_.ntrans; ++i) {
    machine_.sim().ScheduleAt(static_cast<double>(i), [this] {
      EnqueuePending(CreateTransaction(machine_.Now()));
      PumpLockManager();
    });
  }
  probe_.ArmWatchdog();
  machine_.sim().RunUntil(cfg_.tmax);

  core::SimulationMetrics m = stats_.Collect(machine_, cfg_.tmax);
  probe_.PublishRunProfile(wall_timer.Seconds());
  return m;
}

void ExplicitSimulator::ContentionTick() {
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (const auto& [id, holder] : active_) {
    for (const Txn* waiter : holder->blocked) {
      edges.emplace_back(waiter->id, id);
    }
  }
  probe_.ContentionSample(std::move(edges),
                          flat_table_ != nullptr
                              ? flat_table_->LockedGranules()
                              : hier_table_->LockedGranules());
}

void ExplicitSimulator::EnqueuePending(Txn* txn) {
  txn->clock.pending_since = machine_.Now();
  pending_.push_back(txn);
  UpdateQueueStats();
}

ExplicitSimulator::Txn* ExplicitSimulator::CreateTransaction(
    double arrival_time) {
  Txn* txn = txns_.Acquire();
  txn->id = next_txn_id_++;
  txn_factory_->Generate(rng_, &txn->params);
  txn->arrival_time = arrival_time;
  probe_.Created(txn->id, txn->params.nu);
  txn->mode =
      rng_.Bernoulli(options_.read_fraction) ? LockMode::kS : LockMode::kX;
  txn->coarse = options_.strategy == LockingStrategy::kHierarchical &&
                options_.coarse_threshold > 0 &&
                txn->params.nu >= options_.coarse_threshold;
  if (txn->coarse) {
    txn->locks_set = 1.0;  // one database-level lock
  } else {
    txn->granules = SelectGranules(spec_.placement, cfg_.dbsize, cfg_.ltot,
                                   txn->params.nu, rng_);
    if (options_.strategy == LockingStrategy::kHierarchical) {
      // Hierarchical transactions pay for every lock actually set:
      // granule locks plus the derived file/root intention locks, after
      // escalation.
      txn->locks_set = static_cast<double>(
          hier_table_
              ->EffectiveLockSet(GranuleRequests(txn->granules, txn->mode))
              .size());
    } else {
      txn->locks_set = static_cast<double>(txn->granules.size());
    }
  }
  return txn;
}

void ExplicitSimulator::UpdateQueueStats() {
  stats_.UpdateQueues(machine_.Now(), static_cast<int64_t>(active_.size()),
                      blocked_count_, static_cast<int64_t>(pending_.size()));
}

void ExplicitSimulator::PumpLockManager() {
  while (!pending_.empty() &&
         (!options_.serialize_lock_manager ||
          outstanding_lock_requests_ == 0)) {
    Txn* txn = pending_.front();
    pending_.pop_front();
    UpdateQueueStats();
    BeginLockRequest(txn);
  }
  if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
}

void ExplicitSimulator::CheckConsistency() const {
  GRANULOCK_AUDIT_CHECK_GE(outstanding_lock_requests_, 0);
  GRANULOCK_AUDIT_CHECK_GE(blocked_count_, 0);
  GRANULOCK_AUDIT_CHECK_EQ(
      txns_.live(),
      pending_.size() + static_cast<size_t>(outstanding_lock_requests_) +
          static_cast<size_t>(blocked_count_) + active_.size())
      << "live=" << txns_.live() << " pending=" << pending_.size()
      << " in_lock=" << outstanding_lock_requests_
      << " blocked=" << blocked_count_ << " active=" << active_.size();
  size_t blocked_from_lists = 0;
  for (const auto& [id, txn] : active_) {
    GRANULOCK_AUDIT_CHECK_EQ(id, txn->id);
    blocked_from_lists += txn->blocked.size();
    GRANULOCK_AUDIT_CHECK_GT(txn->subtxns_remaining, 0)
        << "active txn " << txn->id << " has no sub-transactions left";
    for (const Txn* waiter : txn->blocked) {
      GRANULOCK_AUDIT_CHECK(waiter->blocked.empty())
          << "blocked txn " << waiter->id
          << " blocks others: waits-for chain under conservative locking";
    }
  }
  GRANULOCK_AUDIT_CHECK_EQ(static_cast<size_t>(blocked_count_),
                           blocked_from_lists);
  // Only active transactions hold locks, and the table itself is sound.
  if (flat_table_ != nullptr) {
    GRANULOCK_AUDIT_CHECK_EQ(
        static_cast<size_t>(flat_table_->ActiveTransactions()),
        active_.size());
    flat_table_->CheckConsistency();
  }
  if (hier_table_ != nullptr) {
    GRANULOCK_AUDIT_CHECK_EQ(hier_table_->Empty(), active_.empty());
    hier_table_->CheckConsistency();
  }
}

void ExplicitSimulator::BeginLockRequest(Txn* txn) {
  ++outstanding_lock_requests_;
  stats_.CountLockRequest();
  const double now = machine_.Now();
  txn->clock.pending_wait += now - txn->clock.pending_since;
  txn->clock.lock_since = now;
  probe_.LockRequested(txn->id, static_cast<int64_t>(txn->locks_set),
                       txn->clock.pending_since);
  const double npros = static_cast<double>(cfg_.npros);
  machine_.PayLockCost(&txn->lock_fanin_remaining,
                       txn->locks_set * cfg_.liotime / npros,
                       txn->locks_set * cfg_.lcputime / npros,
                       [this, txn] { FinishLockRequest(txn); });
}

std::optional<lockmgr::TxnId> ExplicitSimulator::TryAcquire(
    Txn* txn, DenialInfo* denial) {
  switch (options_.strategy) {
    case LockingStrategy::kFlat: {
      std::vector<LockRequest> requests;
      requests.reserve(txn->granules.size());
      for (int64_t g : txn->granules) {
        requests.push_back(LockRequest{g, txn->mode});
      }
      lockmgr::ConflictInfo conflict;
      const auto blocker = flat_table_->TryAcquireAll(
          txn->id, requests, denial != nullptr ? &conflict : nullptr);
      if (blocker.has_value() && denial != nullptr) {
        *denial = DenialInfo{conflict.granule, conflict.requested,
                             conflict.held};
      }
      return blocker;
    }
    case LockingStrategy::kHierarchical: {
      const std::vector<HierRequest> requests =
          txn->coarse ? std::vector<HierRequest>{{ObjectId::Root(), txn->mode}}
                      : GranuleRequests(txn->granules, txn->mode);
      lockmgr::HierConflictInfo conflict;
      const auto blocker = hier_table_->TryAcquireAll(
          txn->id, requests, denial != nullptr ? &conflict : nullptr);
      if (blocker.has_value() && denial != nullptr) {
        *denial = DenialInfo{ContentionKeyOf(conflict.object),
                             conflict.requested, conflict.held};
      }
      return blocker;
    }
  }
  GRANULOCK_LOG(Fatal) << "unknown locking strategy";
  return std::nullopt;
}

void ExplicitSimulator::ReleaseLocks(Txn* txn) {
  switch (options_.strategy) {
    case LockingStrategy::kFlat:
      flat_table_->ReleaseAll(txn->id);
      break;
    case LockingStrategy::kHierarchical:
      hier_table_->ReleaseAll(txn->id);
      break;
  }
}

void ExplicitSimulator::FinishLockRequest(Txn* txn) {
  --outstanding_lock_requests_;
  DenialInfo denial;
  auto* prof = probe_.contention();
  const std::optional<lockmgr::TxnId> blocker =
      TryAcquire(txn, prof != nullptr ? &denial : nullptr);
  if (blocker.has_value()) {
    stats_.CountLockDenial();
    probe_.LockDenied(txn->id, static_cast<int64_t>(*blocker));
    auto it = active_.find(*blocker);
    GRANULOCK_CHECK(it != active_.end())
        << "blocker " << *blocker << " is not active";
    it->second->blocked.push_back(txn);
    ++blocked_count_;
    if (prof != nullptr) {
      // Conservative locking cannot chain waiters, so the depth is 1.
      prof->OnBlock(txn->id, denial.key, denial.requested, denial.held,
                    /*chain_depth=*/1, machine_.Now());
    }
    UpdateQueueStats();
  } else {
    probe_.LockGranted(txn->id, static_cast<int64_t>(txn->locks_set));
    Grant(txn);
  }
  PumpLockManager();
}

void ExplicitSimulator::Grant(Txn* txn) {
  active_.emplace(txn->id, txn);
  txn->clock.lock_wait += machine_.Now() - txn->clock.lock_since;
  probe_.WorkStarted(txn->id, txn->clock.lock_since);
  if (auto* prof = probe_.contention()) {
    if (options_.strategy == LockingStrategy::kHierarchical) {
      if (txn->coarse) {
        prof->OnGrant(obs::kRootObjectKey);
      } else {
        for (const HierRequest& req : hier_table_->EffectiveLockSet(
                 GranuleRequests(txn->granules, txn->mode))) {
          prof->OnGrant(ContentionKeyOf(req.object));
        }
      }
    } else {
      for (int64_t g : txn->granules) prof->OnGrant(g);
    }
  }
  UpdateQueueStats();
  const double pu = static_cast<double>(txn->params.pu);
  core::ForkJoin(&machine_, &probe_, txn, txn->params.io_demand / pu,
                 txn->params.cpu_demand / pu,
                 [this](Txn* t) { Complete(t); });
}

void ExplicitSimulator::Complete(Txn* txn) {
  ReleaseLocks(txn);
  auto it = active_.find(txn->id);
  GRANULOCK_CHECK(it != active_.end());
  active_.erase(it);

  const double now = machine_.Now();
  stats_.Complete(now - txn->arrival_time, txn->clock.At(now, txn->params.pu));
  probe_.SyncWaits(txn->id, txn->sub_cpu_done);
  probe_.Completed(txn->id, txn->arrival_time, txn->params.pu,
                   static_cast<int64_t>(txn->blocked.size()));

  // The blocked stint counts as lock wait, as in the granularity engine.
  blocked_count_ -= static_cast<int64_t>(txn->blocked.size());
  for (Txn* released : txn->blocked) {
    released->clock.lock_wait += now - released->clock.lock_since;
    probe_.Unblocked(released->id, released->clock.lock_since);
    EnqueuePending(released);
  }
  txn->blocked.clear();

  if (cfg_.think_time > 0.0) {
    machine_.sim().ScheduleAfter(rng_.Exponential(cfg_.think_time), [this] {
      EnqueuePending(CreateTransaction(machine_.Now()));
      PumpLockManager();
    });
  } else {
    EnqueuePending(CreateTransaction(machine_.Now()));
  }

  txns_.Release(txn);
  UpdateQueueStats();
  PumpLockManager();
}

}  // namespace granulock::db
