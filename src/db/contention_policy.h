#ifndef GRANULOCK_DB_CONTENTION_POLICY_H_
#define GRANULOCK_DB_CONTENTION_POLICY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/admission.h"
#include "lockmgr/lock_mode.h"
#include "lockmgr/wait_queue_table.h"
#include "lockmgr/waits_for.h"
#include "util/random.h"
#include "util/status.h"

namespace granulock::db {

/// Pluggable contention resolution for the incremental (claim-as-needed)
/// engine. The paper sidesteps the question by locking conservatively
/// ("deadlock is impossible"); the incremental engine lives where it
/// isn't, and the *choice* of restart/wait policy is what decides whether
/// the system degrades gracefully or collapses past the thrashing
/// boundary (Thomasian). This header separates that choice from the
/// engine: a `ContentionPolicy` decides who aborts when a lock request
/// blocks, a `RestartGovernor` decides how victims back off and when a
/// transaction has restarted enough to be sacrificed, and a
/// `core::AdmissionController` throttles the effective multiprogramming
/// level when the blocked fraction says the system is past its knee.
///
/// Determinism contract: policies are pure functions of the lock-table
/// state and the read-only transaction directory — they draw no
/// randomness and iterate no unordered containers, so a run's results
/// depend only on (config, seed, policy).

/// Who aborts when a lock request joins a wait queue.
enum class ContentionPolicyKind {
  /// Baseline: search for a waits-for cycle through the requester; if one
  /// exists the *requester* aborts. Bit-identical to the engine's
  /// historical hard-coded behavior (proven by test).
  kDetectRequester = 0,
  /// Cycle search as above, but the victim is the cycle member holding
  /// the fewest locks (cheapest to redo; ties break to the youngest).
  kDetectFewestLocks = 1,
  /// Cycle search; the victim is the cycle member with the fewest
  /// restarts spared so far (the youngest — least wasted work; ties
  /// break to the largest id).
  kDetectYoungest = 2,
  /// Timestamp wound-wait (no cycle search): an older requester wounds
  /// every younger blocker (they abort, immediately when waiting or at
  /// the next safe point when running); a younger requester waits.
  /// Waits-for edges therefore always point young -> old: acyclic.
  kWoundWait = 3,
  /// Timestamp wait-die (no cycle search): the requester waits only when
  /// it is older than every blocker, otherwise it aborts (dies). Edges
  /// point old -> young: acyclic.
  kWaitDie = 4,
  /// Wait-depth limitation, WDL(1) per Thomasian: a request may wait
  /// only on active (non-blocked) holders, with nobody queued ahead of
  /// it and nobody waiting on the requester's own locks — otherwise the
  /// requester aborts. No waits-for edge ever enters a blocked
  /// transaction, so chains have depth <= 1 and cycles cannot form.
  kWaitDepth = 5,
};

inline constexpr int kNumContentionPolicies = 6;

/// Stable flag/spec name ("detect", "detect_fewest_locks",
/// "detect_youngest", "wound_wait", "wait_die", "wait_depth").
const char* ContentionPolicyName(ContentionPolicyKind kind);

/// Parses a `--policy` value; InvalidArgument lists the known names.
Result<ContentionPolicyKind> ParseContentionPolicy(const std::string& name);

/// Comma-separated list of every policy name (help/error text).
std::string KnownContentionPolicyNames();

/// Read-only view of per-transaction engine state a policy may consult.
/// Transaction ids are creation-ordered and survive restarts, so they
/// double as the timestamps wound-wait/wait-die compare: a smaller id is
/// an older transaction.
class TxnDirectory {
 public:
  virtual ~TxnDirectory() = default;
  /// How many times `txn` has aborted and restarted so far.
  virtual int64_t RestartsOf(lockmgr::TxnId txn) const = 0;
  /// True when `txn` is already marked to abort at its next safe point
  /// (a wounded running holder); policies skip such blockers.
  virtual bool IsDoomed(lockmgr::TxnId txn) const = 0;
};

/// One blocked lock request, as presented to a policy.
struct ConflictRequest {
  lockmgr::TxnId requester = 0;
  int64_t granule = 0;
  lockmgr::LockMode mode = lockmgr::LockMode::kX;
};

/// Strategy interface. `OnBlock` runs after the requester has joined the
/// wait queue for `req.granule`; the table reflects that state.
class ContentionPolicy {
 public:
  virtual ~ContentionPolicy() = default;
  virtual ContentionPolicyKind kind() const = 0;
  /// Replaces `*victims` with the transactions that must abort (possibly
  /// including the requester), in abort order. Empty means the requester
  /// simply waits. The engine aborts waiting victims immediately and
  /// marks running victims doomed (they abort at their next safe point),
  /// then asks again while the requester is still queued. Policies keep
  /// any scratch between calls, so deciding allocates nothing once the
  /// buffers have grown.
  virtual void OnBlock(const ConflictRequest& req,
                       const lockmgr::WaitQueueLockTable& table,
                       const TxnDirectory& txns,
                       std::vector<lockmgr::TxnId>* victims) = 0;
};

std::unique_ptr<ContentionPolicy> MakeContentionPolicy(
    ContentionPolicyKind kind);

/// Rebuilds the waits-for graph from the table's queues (waiter -> every
/// holder of the waited granule) — the edge set the deep audit, the
/// contention profiler and the victim-picking detectors use, and the one
/// `WaitQueueLockTable::OnWaitsForCycle` walks in place.
lockmgr::WaitsForGraph BuildWaitsForGraph(
    const lockmgr::WaitQueueLockTable& table);

/// Replaces `*out` with the transactions blocking `req`, sorted and
/// de-duplicated: every holder of `req.granule` other than the requester
/// plus every waiter queued ahead of it (strict FIFO — the request cannot
/// be granted before those drain).
void BlockersOf(const ConflictRequest& req,
                const lockmgr::WaitQueueLockTable& table,
                std::vector<lockmgr::TxnId>* out);

// ---------------------------------------------------------------------
// Restart governor

struct RestartGovernorOptions {
  /// Multiplier applied to the backoff mean per restart beyond the
  /// first. 1.0 (the default) reproduces the historical fixed-mean
  /// backoff bit-exactly. Must be >= 1.
  double backoff_factor = 1.0;
  /// Upper bound on the backoff mean; <= 0 disables the cap.
  double max_backoff = 0.0;
  /// Per-transaction restart budget: a victim that has already restarted
  /// this many times is *sacrificed* (terminally aborted and replaced by
  /// a fresh transaction) instead of restarting again. < 0 = unlimited.
  int64_t max_restarts = -1;
};

/// Decides how a victim backs off and when it is sacrificed. Jitter
/// comes from the engine's own deterministic RNG stream (passed in), so
/// the governor adds no randomness source of its own.
class RestartGovernor {
 public:
  RestartGovernor(double base_delay, RestartGovernorOptions options);

  /// True when a victim on its `restarts`-th abort (1-based, counted
  /// *after* the increment) has exhausted its budget and must be
  /// sacrificed rather than restarted.
  bool ShouldSacrifice(int64_t restarts) const;

  /// One exponential backoff draw for a victim's `restarts`-th abort
  /// (1-based). The mean is base_delay * factor^(restarts-1), clamped to
  /// `max_backoff`; with factor == 1 the mean stays exactly `base_delay`
  /// so the draw is bit-identical to the historical code's.
  double BackoffDelay(int64_t restarts, Rng& rng) const;

  /// The backoff mean used for a victim's `restarts`-th abort (tests).
  double BackoffMean(int64_t restarts) const;

  const RestartGovernorOptions& options() const { return options_; }

 private:
  double base_delay_;
  RestartGovernorOptions options_;
};

/// Validates governor + admission option ranges (flag parsing and the
/// engine both call this).
Status ValidateContentionOptions(const RestartGovernorOptions& governor,
                                 const core::AdmissionOptions& admission);

/// Everything the incremental engine needs to resolve contention.
struct ContentionOptions {
  ContentionPolicyKind policy = ContentionPolicyKind::kDetectRequester;
  RestartGovernorOptions governor;
  core::AdmissionOptions admission;
};

/// Fault-injection hook for the `policy_victim_flip` point: when armed
/// and firing, replaces the first victim with the never-assigned txn id
/// 0, which the engine rejects with a contained error (see
/// docs/ROBUSTNESS.md). Counted only on non-empty decisions, so hit N
/// addresses the Nth victim decision of the run. `key` is the run's
/// seed. Inert (one relaxed load) when nothing is armed.
void MaybeInjectVictimFlip(uint64_t key, std::vector<lockmgr::TxnId>* victims);

}  // namespace granulock::db

#endif  // GRANULOCK_DB_CONTENTION_POLICY_H_
