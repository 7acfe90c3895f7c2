#ifndef GRANULOCK_DB_EXPLICIT_SIMULATOR_H_
#define GRANULOCK_DB_EXPLICIT_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/conservative_protocol.h"
#include "core/fault.h"
#include "core/metrics.h"
#include "db/granule_selector.h"
#include "lockmgr/hierarchical.h"
#include "lockmgr/lock_table.h"
#include "model/config.h"
#include "obs/hooks.h"
#include "util/random.h"
#include "util/status.h"
#include "workload/workload.h"

namespace granulock::db {

/// The same closed shared-nothing system and conservative-locking protocol
/// (`core::ConservativeProtocol`) as `core::GranularitySimulator`, but
/// requests are decided by an **explicit lock table** instead of the
/// Ries–Stonebraker probabilistic conflict model: every transaction locks
/// a concrete set of granules (drawn by `SelectGranules`), conflicts are
/// detected against real holders, and lock cost is charged per lock
/// actually set. The lock manager processes one request at a time, and
/// released transactions rejoin the tail of the pending queue.
///
/// Two purposes:
///  1. Cross-validation — the paper *approximates* conflicts; this engine
///     measures them. `bench_ablation_conflict_model` overlays the two.
///  2. Extension — the hierarchical strategy implements the paper's
///     closing recommendation (file-level locks for large transactions,
///     block-level for small ones, as in the Gamma machine) and lets
///     `bench_ablation_mgl` quantify it on the mixed workload.
class ExplicitSimulator {
 public:
  /// How transactions translate their granule set into lock requests.
  enum class LockingStrategy {
    /// Exclusive (or shared, see `read_fraction`) locks on each granule in
    /// a flat lock table — the paper's protocol, made explicit.
    kFlat,
    /// Multiple-granularity locking: transactions touching at least
    /// `coarse_threshold` entities take one database-level lock; smaller
    /// ones take intention locks plus granule locks.
    kHierarchical,
  };

  struct Options {
    LockingStrategy strategy = LockingStrategy::kFlat;
    /// kHierarchical only: entity-count threshold at which a transaction
    /// locks the whole database instead of individual granules. 0 disables
    /// coarse locking (everyone locks granules).
    int64_t coarse_threshold = 0;
    /// kHierarchical only: number of files the granules are divided into
    /// (>= 1). Fine-grained transactions take intention locks on the
    /// files they touch; with > 1 file a coarse reader/writer conflicts
    /// only at the root.
    int64_t num_files = 1;
    /// kHierarchical only: per-file lock escalation threshold passed to
    /// the hierarchical manager (0 disables escalation).
    int64_t escalation_threshold = 0;
    /// Probability that a transaction is read-only and takes S locks
    /// (default 0: all transactions update, matching the paper).
    double read_fraction = 0.0;
    /// Optional observability sinks, the lifecycle tracer among them (not
    /// owned; must outlive the run). Attaching any of them never changes
    /// simulated results.
    obs::Hooks obs;
    /// Optional per-cell watchdog; see `core::GranularitySimulator`.
    const fault::CellWatchdog* watchdog = nullptr;
  };

  ExplicitSimulator(model::SystemConfig cfg, workload::WorkloadSpec spec,
                    uint64_t seed, Options options);
  ExplicitSimulator(model::SystemConfig cfg, workload::WorkloadSpec spec,
                    uint64_t seed);
  ~ExplicitSimulator();

  ExplicitSimulator(const ExplicitSimulator&) = delete;
  ExplicitSimulator& operator=(const ExplicitSimulator&) = delete;

  /// Validates, runs to `cfg.tmax`, returns the metrics. Call once.
  Result<core::SimulationMetrics> Run();

  static Result<core::SimulationMetrics> RunOnce(
      const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
      uint64_t seed, Options options);
  static Result<core::SimulationMetrics> RunOnce(
      const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
      uint64_t seed);

 private:
  friend struct AuditTestPeer;  // invariants_test corrupts state through it

  struct Txn;
  using Protocol = core::ConservativeProtocol<ExplicitSimulator, Txn>;
  friend Protocol;

  // --- the protocol's hooks (see core::ConservativeProtocol) ---
  /// Draws the transaction's concrete lock set and its per-attempt cost.
  Txn* CreateTransaction();
  /// Attempts the acquisition against the active lock table.
  Txn* Decide(Txn* txn);
  void OnGranted(Txn* txn);
  void OnReleased(Txn* txn);
  int64_t AdmissionCap() const { return 0; }
  int64_t LockedGranules() const;
  /// Deep audit: the protocol's conservation audit, then the active lock
  /// table's own `CheckConsistency` — every active transaction holds
  /// locks, nobody else does.
  void CheckConsistency() const;

  model::SystemConfig cfg_;
  workload::WorkloadSpec spec_;
  Options options_;
  /// Built in `Run()` (needs a validated spec); amortizes lock-demand and
  /// node-set work across every transaction the run creates.
  std::optional<workload::TransactionFactory> txn_factory_;
  Rng rng_;

  std::unique_ptr<lockmgr::LockTable> flat_table_;
  std::unique_ptr<lockmgr::HierarchicalLockManager> hier_table_;
  /// The flat path's lock requests in `Decide`, reused so that a decision
  /// allocates none once it has held the largest lock set.
  std::vector<lockmgr::LockRequest> flat_requests_;

  Protocol protocol_;
};

}  // namespace granulock::db

#endif  // GRANULOCK_DB_EXPLICIT_SIMULATOR_H_
