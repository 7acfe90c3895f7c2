#ifndef GRANULOCK_DB_TRANSFER_SIMULATOR_H_
#define GRANULOCK_DB_TRANSFER_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/conservative_protocol.h"
#include "core/fault.h"
#include "core/metrics.h"
#include "lockmgr/lock_table.h"
#include "model/config.h"
#include "obs/hooks.h"
#include "storage/record_store.h"
#include "util/random.h"
#include "util/status.h"

namespace granulock::db {

/// The paper's motivating example, made executable: a closed system of
/// **funds-transfer transactions** against real account records
/// (`storage::RecordStore`), under the simulated shared-nothing timing
/// model. Each transfer debits one random account and credits another:
/// read both balances, compute, write both back — with real I/O/CPU delays
/// between the reads and the writes, so incorrect concurrency control
/// produces genuine *lost updates* ("it might lead to the lost update
/// problem in a funds transfer transaction", §1).
///
/// The system runs the paper's protocol (`core::ConservativeProtocol`,
/// with a serialized lock manager and released transactions rejoining the
/// tail of the pending queue); the engine supplies its own execution step.
/// Two concurrency-control modes:
///  * kConservativeLocking — each transfer locks its accounts' granules
///    (one or two) in a real lock table at the configured granularity
///    (`cfg.ltot`) and pays the lock cost per lock set; execution is
///    serializable, so the total balance is conserved;
///  * kNoLocking — transfers set no locks, so they skip the lock request
///    and run unprotected; concurrent transfers overwrite each other's
///    balances and the invariant breaks. This mode exists to demonstrate
///    *why* the locking whose granularity the paper tunes is needed at all.
///
/// Beyond correctness, the engine reports the usual timing metrics, so the
/// granularity trade-off can be studied on a realistic OLTP workload
/// (2-record transactions ~ the debit-credit benchmark the paper cites).
class TransferSimulator {
 public:
  enum class ConcurrencyControl {
    kConservativeLocking,
    kNoLocking,
  };

  struct Options {
    ConcurrencyControl concurrency_control =
        ConcurrencyControl::kConservativeLocking;
    /// Every account starts with this balance.
    int64_t initial_balance = 1000;
    /// Probability that a transfer debits account 0 (a hot spot); 0 picks
    /// both accounts uniformly.
    double hot_fraction = 0.0;
    /// Zipf skew for account selection (0 = uniform, up to ~0.99 for the
    /// YCSB-style hot-key distribution). Composes with `hot_fraction`.
    double zipf_theta = 0.0;
    /// Optional observability sinks; attaching them never changes
    /// simulated results. The protocol reports the transaction lifecycle
    /// to the registry's counters and the trace, and the pending and
    /// lock-wait spans to `spans`. The execution step records no spans,
    /// so no transfer's spans are reconciled. The registry also gets the
    /// post-run profile, the sampler its ticks, and the contention
    /// profiler (only meaningful under kConservativeLocking; kNoLocking
    /// never blocks) its waits and samples.
    obs::Hooks obs;
    /// Optional per-cell watchdog; see `core::GranularitySimulator`.
    const fault::CellWatchdog* watchdog = nullptr;
  };

  /// The run outcome: timing metrics plus the data-integrity verdict.
  struct Report {
    core::SimulationMetrics metrics;
    /// Sum of balances before / after the run.
    int64_t initial_total = 0;
    int64_t final_total = 0;
    /// Net delta intended by the writes that were applied (non-zero only
    /// for transfers cut off mid-write by tmax; every completed transfer
    /// nets to zero).
    int64_t in_flight_imbalance = 0;
    /// True iff money was conserved, i.e.
    /// `final_total == initial_total + in_flight_imbalance`. Lost updates
    /// (writes based on stale reads) break this identity; partial
    /// transfers at the simulation horizon do not.
    bool conserved = false;
    /// Writes applied to the store.
    int64_t writes_applied = 0;
  };

  TransferSimulator(model::SystemConfig cfg, uint64_t seed, Options options);
  TransferSimulator(model::SystemConfig cfg, uint64_t seed);
  ~TransferSimulator();

  TransferSimulator(const TransferSimulator&) = delete;
  TransferSimulator& operator=(const TransferSimulator&) = delete;

  /// Validates, runs to `cfg.tmax`, returns the report. Call once.
  /// `cfg.maxtransize` is ignored (every transfer touches 2 records). A
  /// completed transfer is replaced after the terminal's `cfg.think_time`,
  /// as in the other engines.
  Result<Report> Run();

  static Result<Report> RunOnce(const model::SystemConfig& cfg,
                                uint64_t seed, Options options);
  static Result<Report> RunOnce(const model::SystemConfig& cfg,
                                uint64_t seed);

 private:
  friend struct AuditTestPeer;  // invariants_test corrupts state through it

  struct Txn;
  using Protocol = core::ConservativeProtocol<TransferSimulator, Txn>;
  friend Protocol;

  // --- the protocol's hooks (see core::ConservativeProtocol) ---
  /// Draws the two accounts and the amount, and the locks every attempt
  /// asks for and pays for (none under kNoLocking).
  Txn* CreateTransaction();
  /// Attempts both accounts' granule locks against the lock table.
  Txn* Decide(Txn* txn);
  void OnGranted(Txn* txn);
  void OnReleased(Txn* txn);
  int64_t AdmissionCap() const { return 0; }
  int64_t LockedGranules() const { return table_->LockedGranules(); }
  /// The execution step: read both balances, compute, write both back.
  void Execute(Txn* txn);
  /// Deep audit: the protocol's conservation audit, then the lock table's
  /// own, with exactly the active transactions holding locks (none under
  /// kNoLocking).
  void CheckConsistency() const;

  void Read(Txn* txn, int64_t account, int64_t* balance);
  void Write(Txn* txn, int64_t account, int64_t balance, int64_t delta);
  int64_t GranuleOfAccount(int64_t account) const;

  model::SystemConfig cfg_;
  Options options_;
  Rng rng_;

  std::unique_ptr<storage::RecordStore> store_;
  std::unique_ptr<ZipfGenerator> zipf_;
  std::unique_ptr<lockmgr::LockTable> table_;
  /// `Decide`'s lock requests, reused so that a decision allocates none.
  std::vector<lockmgr::LockRequest> requests_;
  /// Net intended delta of applied writes (see Report::in_flight_imbalance).
  int64_t net_applied_ = 0;

  Protocol protocol_;
};

}  // namespace granulock::db

#endif  // GRANULOCK_DB_TRANSFER_SIMULATOR_H_
