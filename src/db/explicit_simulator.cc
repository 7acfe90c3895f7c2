#include "db/explicit_simulator.h"

#include <algorithm>
#include <utility>

#include "sim/invariants.h"
#include "util/logging.h"

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
  std::vector<Txn*> blocked;

  /// Granules this transaction locks (kFlat, or kHierarchical fine path).
  std::vector<int64_t> granules;
  /// True if this transaction takes one database-level lock instead.
  bool coarse = false;
  /// S for read-only transactions, X otherwise.
  LockMode mode = LockMode::kX;

  core::PhaseClock clock;  // phase accounting, always on
  std::vector<std::pair<int32_t, double>> sub_cpu_done;

  /// Freshly-constructed state, vectors' capacity kept (core::TxnPool).
  void Reset() {
    id = 0;
    arrival_time = 0.0;
    subtxns_remaining = 0;
    blocked.clear();
    granules.clear();
    coarse = false;
    mode = LockMode::kX;
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
      protocol_(this, &rng_, options_.obs, options_.watchdog,
                /*serialize_lock_manager=*/true,
                /*requeue_blocked_at_tail=*/true) {}

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
  GRANULOCK_RETURN_NOT_OK(protocol_.Begin());
  GRANULOCK_RETURN_NOT_OK(cfg_.Validate());
  GRANULOCK_RETURN_NOT_OK(spec_.Validate(cfg_));
  txn_factory_.emplace(cfg_, spec_);
  // A negated range, so a NaN fails it.
  if (!(options_.read_fraction >= 0.0 && options_.read_fraction <= 1.0)) {
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

  return protocol_.Run(cfg_, /*imputed=*/false);
}

ExplicitSimulator::Txn* ExplicitSimulator::CreateTransaction() {
  Txn* txn = protocol_.txns().Acquire();
  txn_factory_->Generate(rng_, &txn->params);
  txn->mode =
      rng_.Bernoulli(options_.read_fraction) ? LockMode::kS : LockMode::kX;
  txn->coarse = options_.strategy == LockingStrategy::kHierarchical &&
                options_.coarse_threshold > 0 &&
                txn->params.nu >= options_.coarse_threshold;
  int64_t locks_set = 1;  // coarse: one database-level lock
  if (!txn->coarse) {
    SelectGranules(spec_.placement, cfg_.dbsize, cfg_.ltot, txn->params.nu,
                   rng_, &txn->granules);
    if (options_.strategy == LockingStrategy::kHierarchical) {
      // Hierarchical transactions pay for every lock actually set:
      // granule locks plus the derived file/root intention locks, after
      // escalation.
      locks_set = static_cast<int64_t>(
          hier_table_
              ->EffectiveLockSet(GranuleRequests(txn->granules, txn->mode))
              .size());
    } else {
      locks_set = static_cast<int64_t>(txn->granules.size());
    }
  }
  // Every attempt asks for, and pays for, the locks actually set.
  txn->params.lu = locks_set;
  txn->params.lock_io_demand = static_cast<double>(locks_set) * cfg_.liotime;
  txn->params.lock_cpu_demand =
      static_cast<double>(locks_set) * cfg_.lcputime;
  return txn;
}

int64_t ExplicitSimulator::LockedGranules() const {
  return flat_table_ != nullptr ? flat_table_->LockedGranules()
                                : hier_table_->LockedGranules();
}

void ExplicitSimulator::CheckConsistency() const {
  protocol_.CheckConsistency();
  // Only active transactions hold locks, and the table itself is sound.
  const size_t active = protocol_.active().size();
  if (flat_table_ != nullptr) {
    GRANULOCK_AUDIT_CHECK_EQ(
        static_cast<size_t>(flat_table_->ActiveTransactions()), active);
    flat_table_->CheckConsistency();
  }
  if (hier_table_ != nullptr) {
    GRANULOCK_AUDIT_CHECK_EQ(hier_table_->Empty(), active == 0);
    hier_table_->CheckConsistency();
  }
}

ExplicitSimulator::Txn* ExplicitSimulator::Decide(Txn* txn) {
  // Contention attribution for a refusal, in the profiler's key space
  // (granule g -> g, file f -> FileObjectKey(f), root -> kRootObjectKey).
  auto* prof = protocol_.probe().contention();
  std::optional<lockmgr::TxnId> blocker;
  int64_t key = 0;
  LockMode requested = LockMode::kX;
  LockMode held = LockMode::kX;
  switch (options_.strategy) {
    case LockingStrategy::kFlat: {
      flat_requests_.clear();
      for (int64_t g : txn->granules) {
        flat_requests_.push_back(LockRequest{g, txn->mode});
      }
      lockmgr::ConflictInfo conflict;
      blocker = flat_table_->TryAcquireAll(
          txn->id, flat_requests_, prof != nullptr ? &conflict : nullptr);
      key = conflict.granule;
      requested = conflict.requested;
      held = conflict.held;
      break;
    }
    case LockingStrategy::kHierarchical: {
      const std::vector<HierRequest> requests =
          txn->coarse ? std::vector<HierRequest>{{ObjectId::Root(), txn->mode}}
                      : GranuleRequests(txn->granules, txn->mode);
      lockmgr::HierConflictInfo conflict;
      blocker = hier_table_->TryAcquireAll(
          txn->id, requests, prof != nullptr ? &conflict : nullptr);
      key = ContentionKeyOf(conflict.object);
      requested = conflict.requested;
      held = conflict.held;
      break;
    }
  }
  if (!blocker.has_value()) return nullptr;
  const lockmgr::TxnId blocker_id = *blocker;
  if (prof != nullptr) {
    // Conservative locking cannot chain waiters, so the depth is 1.
    prof->OnBlock(txn->id, key, requested, held, /*chain_depth=*/1,
                  protocol_.machine().Now());
  }
  const std::vector<Txn*>& active = protocol_.active();
  auto it = std::find_if(active.begin(), active.end(), [blocker_id](Txn* t) {
    return t->id == blocker_id;
  });
  GRANULOCK_CHECK(it != active.end())
      << "blocker " << blocker_id << " is not active";
  return *it;
}

void ExplicitSimulator::OnGranted(Txn* txn) {
  auto* prof = protocol_.probe().contention();
  if (prof == nullptr) return;
  if (options_.strategy == LockingStrategy::kFlat) {
    for (int64_t g : txn->granules) prof->OnGrant(g);
  } else if (txn->coarse) {
    prof->OnGrant(obs::kRootObjectKey);
  } else {
    for (const HierRequest& req : hier_table_->EffectiveLockSet(
             GranuleRequests(txn->granules, txn->mode))) {
      prof->OnGrant(ContentionKeyOf(req.object));
    }
  }
}

void ExplicitSimulator::OnReleased(Txn* txn) {
  if (flat_table_ != nullptr) {
    flat_table_->ReleaseAll(txn->id);
  } else {
    hier_table_->ReleaseAll(txn->id);
  }
}

}  // namespace granulock::db
