#include "db/transfer_simulator.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "db/granule_selector.h"
#include "sim/invariants.h"
#include "util/logging.h"
#include "workload/workload.h"

namespace granulock::db {

using lockmgr::LockMode;
using sim::ServiceClass;

/// One live transfer: debit `from`, credit `to` by `amount`. The balances
/// read during the read phase are held in `read_from`/`read_to` until the
/// write phase applies them — the window in which a concurrent unprotected
/// transfer can be lost.
struct TransferSimulator::Txn {
  lockmgr::TxnId id = 0;
  /// `nu` = `pu` = 2 (two records, at most two jobs at a time); `lu` and
  /// the lock demands are the locks set, 0 under kNoLocking.
  workload::TransactionParams params;
  double arrival_time = 0.0;
  /// Jobs of the current stage still running: two reads, one compute,
  /// then two writes.
  int64_t subtxns_remaining = 0;
  std::vector<Txn*> blocked;
  core::PhaseClock clock;  // the protocol's pending and lock waits

  int64_t from = 0;
  int64_t to = 0;
  int64_t amount = 0;
  int64_t read_from = 0;
  int64_t read_to = 0;

  /// Freshly-constructed state, vectors' capacity kept (core::TxnPool).
  void Reset() {
    id = 0;
    params = {};
    arrival_time = 0.0;
    subtxns_remaining = 0;
    blocked.clear();
    clock = {};
    from = 0;
    to = 0;
    amount = 0;
    read_from = 0;
    read_to = 0;
  }
};

TransferSimulator::TransferSimulator(model::SystemConfig cfg, uint64_t seed,
                                     Options options)
    : cfg_(std::move(cfg)),
      options_(options),
      rng_(seed),
      protocol_(this, &rng_, options_.obs, options_.watchdog,
                /*serialize_lock_manager=*/true,
                /*requeue_blocked_at_tail=*/true) {}

TransferSimulator::TransferSimulator(model::SystemConfig cfg, uint64_t seed)
    : TransferSimulator(std::move(cfg), seed, Options{}) {}

TransferSimulator::~TransferSimulator() = default;

Result<TransferSimulator::Report> TransferSimulator::RunOnce(
    const model::SystemConfig& cfg, uint64_t seed, Options options) {
  TransferSimulator simulator(cfg, seed, options);
  return simulator.Run();
}

Result<TransferSimulator::Report> TransferSimulator::RunOnce(
    const model::SystemConfig& cfg, uint64_t seed) {
  return RunOnce(cfg, seed, Options{});
}

int64_t TransferSimulator::GranuleOfAccount(int64_t account) const {
  return GranuleOfEntity(account, cfg_.dbsize, cfg_.ltot);
}

Result<TransferSimulator::Report> TransferSimulator::Run() {
  GRANULOCK_RETURN_NOT_OK(protocol_.Begin());
  GRANULOCK_RETURN_NOT_OK(cfg_.Validate());
  if (cfg_.dbsize < 2) {
    return Status::InvalidArgument("transfers need at least two accounts");
  }
  // Negated ranges, so a NaN fails them.
  if (!(options_.hot_fraction >= 0.0 && options_.hot_fraction <= 1.0)) {
    return Status::InvalidArgument("hot_fraction must be in [0, 1]");
  }
  if (!(options_.zipf_theta >= 0.0 && options_.zipf_theta < 1.0)) {
    return Status::InvalidArgument("zipf_theta must be in [0, 1)");
  }
  if (options_.zipf_theta > 0.0) {
    zipf_ = std::make_unique<ZipfGenerator>(cfg_.dbsize, options_.zipf_theta);
  }

  store_ = std::make_unique<storage::RecordStore>(cfg_.dbsize, cfg_.npros,
                                                  options_.initial_balance);
  table_ = std::make_unique<lockmgr::LockTable>(cfg_.ltot);

  Report report;
  report.initial_total = store_->Total();
  report.metrics = protocol_.Run(cfg_, /*imputed=*/false);
  report.final_total = store_->Total();
  report.in_flight_imbalance = net_applied_;
  report.conserved =
      report.final_total == report.initial_total + report.in_flight_imbalance;
  report.writes_applied = store_->write_count();
  return report;
}

TransferSimulator::Txn* TransferSimulator::CreateTransaction() {
  Txn* txn = protocol_.txns().Acquire();
  const auto draw_account = [this] {
    return zipf_ ? zipf_->Sample(rng_) : rng_.UniformInt(0, cfg_.dbsize - 1);
  };
  txn->from =
      rng_.Bernoulli(options_.hot_fraction) ? 0 : draw_account();
  do {
    txn->to = draw_account();
  } while (txn->to == txn->from);
  txn->amount = rng_.UniformInt(1, 10);
  txn->params.nu = 2;
  txn->params.pu = 2;
  if (options_.concurrency_control ==
      ConcurrencyControl::kConservativeLocking) {
    // Lock cost per the paper's model: per-lock I/O then CPU, paid on
    // every attempt.
    const int64_t locks =
        GranuleOfAccount(txn->from) == GranuleOfAccount(txn->to) ? 1 : 2;
    txn->params.lu = locks;
    txn->params.lock_io_demand = static_cast<double>(locks) * cfg_.liotime;
    txn->params.lock_cpu_demand = static_cast<double>(locks) * cfg_.lcputime;
  }
  return txn;
}

void TransferSimulator::CheckConsistency() const {
  protocol_.CheckConsistency();
  const bool locking = options_.concurrency_control ==
                       ConcurrencyControl::kConservativeLocking;
  GRANULOCK_AUDIT_CHECK_EQ(static_cast<size_t>(table_->ActiveTransactions()),
                           locking ? protocol_.active().size() : 0);
  table_->CheckConsistency();
}

TransferSimulator::Txn* TransferSimulator::Decide(Txn* txn) {
  requests_.assign({{GranuleOfAccount(txn->from), LockMode::kX},
                    {GranuleOfAccount(txn->to), LockMode::kX}});
  auto* prof = protocol_.probe().contention();
  lockmgr::ConflictInfo conflict;
  const auto blocker = table_->TryAcquireAll(
      txn->id, requests_, prof != nullptr ? &conflict : nullptr);
  if (!blocker.has_value()) return nullptr;
  if (prof != nullptr) {
    // Conservative locking cannot chain waiters, so the depth is 1.
    prof->OnBlock(txn->id, conflict.granule, conflict.requested,
                  conflict.held, /*chain_depth=*/1,
                  protocol_.machine().Now());
  }
  const lockmgr::TxnId blocker_id = *blocker;
  const std::vector<Txn*>& active = protocol_.active();
  auto it = std::find_if(active.begin(), active.end(), [blocker_id](Txn* t) {
    return t->id == blocker_id;
  });
  GRANULOCK_CHECK(it != active.end())
      << "blocker " << blocker_id << " is not active";
  return *it;
}

void TransferSimulator::OnGranted(Txn* txn) {
  auto* prof = protocol_.probe().contention();
  if (prof == nullptr || txn->params.lu == 0) return;
  const int64_t granule_a = GranuleOfAccount(txn->from);
  const int64_t granule_b = GranuleOfAccount(txn->to);
  prof->OnGrant(granule_a);
  if (granule_b != granule_a) prof->OnGrant(granule_b);
}

void TransferSimulator::OnReleased(Txn* txn) { table_->ReleaseAll(txn->id); }

void TransferSimulator::Execute(Txn* txn) {
  txn->subtxns_remaining = 2;
  Read(txn, txn->from, &txn->read_from);
  Read(txn, txn->to, &txn->read_to);
}

void TransferSimulator::Read(Txn* txn, int64_t account, int64_t* balance) {
  protocol_.machine()
      .io(store_->NodeOf(account))
      .Submit(ServiceClass::kTransaction, cfg_.iotime,
              [this, txn, account, balance] {
    // The balance is captured at read-completion time; it can go stale
    // before the write phase applies it.
    *balance = store_->Read(account);
    if (--txn->subtxns_remaining > 0) return;
    // Compute phase: validate and build the new balances on the debit
    // account's CPU.
    txn->subtxns_remaining = 1;
    protocol_.machine()
        .cpu(store_->NodeOf(txn->from))
        .Submit(ServiceClass::kTransaction, 2.0 * cfg_.cputime,
                [this, txn] {
      // Track the delta each applied write intends, so the integrity
      // check can net out transfers cut off mid-write by the simulation
      // horizon.
      txn->subtxns_remaining = 2;
      Write(txn, txn->from, txn->read_from - txn->amount, -txn->amount);
      Write(txn, txn->to, txn->read_to + txn->amount, txn->amount);
    });
  });
}

void TransferSimulator::Write(Txn* txn, int64_t account, int64_t balance,
                              int64_t delta) {
  protocol_.machine()
      .io(store_->NodeOf(account))
      .Submit(ServiceClass::kTransaction, cfg_.iotime,
              [this, txn, account, balance, delta] {
    store_->Write(account, balance);
    net_applied_ += delta;
    if (--txn->subtxns_remaining == 0) protocol_.Complete(txn);
  });
}

}  // namespace granulock::db
