// Tests for the pluggable contention-resolution suite: the policies
// themselves (hand-built lock-table scenarios with known right answers),
// the restart governor and admission controller arithmetic, the engine
// integration (conservation audits, deadlock-freedom of the timestamp
// policies, sacrifice accounting), and — load-bearing for the whole
// refactor — the golden regression proving that the default options
// reproduce the pre-policy engine bit for bit.

#include "db/contention_policy.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/incremental_simulator.h"
#include "lockmgr/wait_queue_table.h"
#include "lockmgr/waits_for.h"
#include "model/config.h"
#include "sim/invariants.h"
#include "util/random.h"
#include "workload/workload.h"

namespace granulock::db {
namespace {

using core::AdmissionController;
using core::AdmissionOptions;
using lockmgr::LockMode;
using lockmgr::TxnId;
using lockmgr::WaitQueueLockTable;

// ---------------------------------------------------------------------------
// Name round-trip and parsing.

TEST(ContentionPolicyNameTest, NamesRoundTripThroughParse) {
  for (int k = 0; k < kNumContentionPolicies; ++k) {
    const auto kind = static_cast<ContentionPolicyKind>(k);
    const auto parsed = ParseContentionPolicy(ContentionPolicyName(kind));
    ASSERT_TRUE(parsed.ok()) << ContentionPolicyName(kind);
    EXPECT_EQ(*parsed, kind);
    EXPECT_EQ(MakeContentionPolicy(kind)->kind(), kind);
  }
}

TEST(ContentionPolicyNameTest, UnknownNameListsTheKnownOnes) {
  const auto parsed = ParseContentionPolicy("optimistic");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("wound_wait"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Policy decisions on hand-built tables. Scenario: txn `a` holds granule
// 0, txn `b` holds granule 1; `a` queues on 1, then `b` queues on 0 —
// the canonical two-cycle. Ids double as timestamps (smaller = older).

class ScriptedDirectory : public TxnDirectory {
 public:
  int64_t RestartsOf(TxnId txn) const override {
    auto it = restarts_.begin();
    for (; it != restarts_.end(); ++it) {
      if (it->first == txn) return it->second;
    }
    return 0;
  }
  bool IsDoomed(TxnId txn) const override {
    return std::find(doomed_.begin(), doomed_.end(), txn) != doomed_.end();
  }
  void SetRestarts(TxnId txn, int64_t n) { restarts_.emplace_back(txn, n); }
  void Doom(TxnId txn) { doomed_.push_back(txn); }

 private:
  std::vector<std::pair<TxnId, int64_t>> restarts_;
  std::vector<TxnId> doomed_;
};

/// The victims a fresh policy of `kind` names for `req`.
std::vector<TxnId> Victims(ContentionPolicyKind kind,
                           const ConflictRequest& req,
                           const WaitQueueLockTable& table,
                           const TxnDirectory& txns) {
  std::vector<TxnId> victims{99};  // stale: OnBlock must replace it
  MakeContentionPolicy(kind)->OnBlock(req, table, txns, &victims);
  return victims;
}

struct CycleFixture {
  WaitQueueLockTable table{4};
  ScriptedDirectory txns;

  /// Builds hold-and-wait between `a` (holds 0, waits on 1) and `b`
  /// (holds 1, waits on 0); returns the blocked request of `b`, the
  /// request that closes the cycle.
  ConflictRequest Close(TxnId a, TxnId b) {
    EXPECT_EQ(table.Acquire(a, 0, LockMode::kX),
              WaitQueueLockTable::AcquireResult::kGranted);
    EXPECT_EQ(table.Acquire(b, 1, LockMode::kX),
              WaitQueueLockTable::AcquireResult::kGranted);
    EXPECT_EQ(table.Acquire(a, 1, LockMode::kX),
              WaitQueueLockTable::AcquireResult::kQueued);
    EXPECT_EQ(table.Acquire(b, 0, LockMode::kX),
              WaitQueueLockTable::AcquireResult::kQueued);
    return ConflictRequest{b, 0, LockMode::kX};
  }
};

TEST(PolicyDecisionTest, DetectRequesterAbortsTheRequesterOnCycle) {
  CycleFixture fx;
  const ConflictRequest req = fx.Close(1, 2);
  const auto decision = Victims(ContentionPolicyKind::kDetectRequester,
                                req, fx.table, fx.txns);
  EXPECT_EQ(decision, (std::vector<TxnId>{2}));
}

TEST(PolicyDecisionTest, DetectRequesterWaitsWhenNoCycle) {
  WaitQueueLockTable table(4);
  ScriptedDirectory txns;
  EXPECT_EQ(table.Acquire(1, 0, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(2, 0, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kQueued);
  const auto decision = Victims(ContentionPolicyKind::kDetectRequester,
                                {2, 0, LockMode::kX}, table, txns);
  EXPECT_TRUE(decision.empty());
}

TEST(PolicyDecisionTest, DetectFewestLocksPicksTheCheapestCycleMember) {
  CycleFixture fx;
  // Give txn 1 an extra lock so txn 2 (1 lock held) is the cheaper victim
  // even though it is not the requester... and then also the requester,
  // so distinguish via txn 1 being heavier.
  EXPECT_EQ(fx.table.Acquire(1, 2, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kGranted);
  const ConflictRequest req = fx.Close(1, 2);
  const auto decision = Victims(ContentionPolicyKind::kDetectFewestLocks,
                                req, fx.table, fx.txns);
  EXPECT_EQ(decision, (std::vector<TxnId>{2}));

  // Mirror image: when the requester is the heavier one, the OTHER cycle
  // member is chosen — which the baseline policy never does.
  CycleFixture fx2;
  EXPECT_EQ(fx2.table.Acquire(2, 2, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kGranted);
  const ConflictRequest req2 = fx2.Close(1, 2);
  const auto decision2 = Victims(ContentionPolicyKind::kDetectFewestLocks,
                                 req2, fx2.table, fx2.txns);
  EXPECT_EQ(decision2, (std::vector<TxnId>{1}));
}

TEST(PolicyDecisionTest, DetectYoungestSparesTheMostRestartedMember) {
  CycleFixture fx;
  // txn 2 has restarted 3 times already (most invested); txn 1 never:
  // the youngest-by-restarts victim is txn 1.
  fx.txns.SetRestarts(2, 3);
  const ConflictRequest req = fx.Close(1, 2);
  const auto decision = Victims(ContentionPolicyKind::kDetectYoungest,
                                req, fx.table, fx.txns);
  EXPECT_EQ(decision, (std::vector<TxnId>{1}));
}

TEST(PolicyDecisionTest, WoundWaitOlderRequesterWoundsYoungerBlockers) {
  WaitQueueLockTable table(4);
  ScriptedDirectory txns;
  // Younger txn 5 holds; older txn 2 requests: 2 wounds 5.
  EXPECT_EQ(table.Acquire(5, 0, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(2, 0, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kQueued);
  const auto wound = Victims(ContentionPolicyKind::kWoundWait,
                             {2, 0, LockMode::kX}, table, txns);
  EXPECT_EQ(wound, (std::vector<TxnId>{5}));

  // Older txn 1 holds; younger txn 7 requests: 7 waits.
  WaitQueueLockTable table2(4);
  EXPECT_EQ(table2.Acquire(1, 0, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kGranted);
  EXPECT_EQ(table2.Acquire(7, 0, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kQueued);
  const auto wait = Victims(ContentionPolicyKind::kWoundWait,
                            {7, 0, LockMode::kX}, table2, txns);
  EXPECT_TRUE(wait.empty());
}

TEST(PolicyDecisionTest, WaitDieYoungerRequesterDies) {
  WaitQueueLockTable table(4);
  ScriptedDirectory txns;
  // Older txn 1 holds; younger txn 9 requests: 9 dies (it is the victim).
  EXPECT_EQ(table.Acquire(1, 0, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(9, 0, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kQueued);
  const auto die = Victims(ContentionPolicyKind::kWaitDie,
                           {9, 0, LockMode::kX}, table, txns);
  EXPECT_EQ(die, (std::vector<TxnId>{9}));

  // Younger txn 8 holds; older txn 2 requests: 2 waits.
  WaitQueueLockTable table2(4);
  EXPECT_EQ(table2.Acquire(8, 0, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kGranted);
  EXPECT_EQ(table2.Acquire(2, 0, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kQueued);
  const auto wait = Victims(ContentionPolicyKind::kWaitDie,
                            {2, 0, LockMode::kX}, table2, txns);
  EXPECT_TRUE(wait.empty());
}

TEST(PolicyDecisionTest, WaitDepthAbortsRequesterBlockedOnABlockedHolder) {
  // WDL(1): txn 1 holds granule 0 but is itself blocked (queued behind
  // txn 2 on granule 1) — a request by txn 3 that would wait on the
  // *blocked* txn 1 aborts instead.
  WaitQueueLockTable table(4);
  ScriptedDirectory txns;
  EXPECT_EQ(table.Acquire(1, 0, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(2, 1, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(1, 1, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kQueued);  // 1 is now blocked
  EXPECT_EQ(table.Acquire(3, 0, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kQueued);  // 3 waits on 1
  const auto decision = Victims(ContentionPolicyKind::kWaitDepth,
                                {3, 0, LockMode::kX}, table, txns);
  EXPECT_EQ(decision, (std::vector<TxnId>{3}));
}

TEST(PolicyDecisionTest, WaitDepthAllowsDepthOneWaits) {
  // Waiting on a single active (unblocked) holder with nothing queued
  // ahead and nobody waiting on the requester is allowed.
  WaitQueueLockTable table(4);
  ScriptedDirectory txns;
  EXPECT_EQ(table.Acquire(1, 0, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(2, 0, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kQueued);
  const auto decision = Victims(ContentionPolicyKind::kWaitDepth,
                                {2, 0, LockMode::kX}, table, txns);
  EXPECT_TRUE(decision.empty());
}

TEST(PolicyDecisionTest, PoliciesSkipDoomedBlockers) {
  // A doomed holder is already dying; wound-wait must not name it again
  // (the engine would loop re-dooming it forever otherwise).
  WaitQueueLockTable table(4);
  ScriptedDirectory txns;
  EXPECT_EQ(table.Acquire(5, 0, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(2, 0, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kQueued);
  txns.Doom(5);
  const auto decision = Victims(ContentionPolicyKind::kWoundWait,
                                {2, 0, LockMode::kX}, table, txns);
  EXPECT_TRUE(decision.empty());
}

TEST(BlockersOfTest, IncludesHoldersAndFifoPredecessors) {
  WaitQueueLockTable table(4);
  EXPECT_EQ(table.Acquire(1, 0, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(2, 0, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kQueued);
  EXPECT_EQ(table.Acquire(3, 0, LockMode::kX),
            WaitQueueLockTable::AcquireResult::kQueued);
  std::vector<TxnId> blockers{7};  // stale: BlockersOf replaces it
  BlockersOf({3, 0, LockMode::kX}, table, &blockers);
  EXPECT_EQ(blockers, (std::vector<TxnId>{1, 2}));
}

// ---------------------------------------------------------------------------
// Restart governor arithmetic.

TEST(RestartGovernorTest, FactorOneKeepsTheHistoricalDrawBitExact) {
  const RestartGovernor governor(10.0, {});
  // The mean never moves...
  EXPECT_EQ(governor.BackoffMean(1), 10.0);
  EXPECT_EQ(governor.BackoffMean(7), 10.0);
  // ...and the draw is the exact same stream value the historical code
  // produced: rng.Exponential(restart_delay), no extra arithmetic.
  Rng a(123);
  Rng b(123);
  EXPECT_EQ(governor.BackoffDelay(5, a), b.Exponential(10.0));
}

TEST(RestartGovernorTest, ExponentialGrowthWithCap) {
  RestartGovernorOptions opts;
  opts.backoff_factor = 2.0;
  opts.max_backoff = 70.0;
  const RestartGovernor governor(10.0, opts);
  EXPECT_DOUBLE_EQ(governor.BackoffMean(1), 10.0);
  EXPECT_DOUBLE_EQ(governor.BackoffMean(2), 20.0);
  EXPECT_DOUBLE_EQ(governor.BackoffMean(3), 40.0);
  EXPECT_DOUBLE_EQ(governor.BackoffMean(4), 70.0);  // capped, not 80
  EXPECT_DOUBLE_EQ(governor.BackoffMean(9), 70.0);
}

TEST(RestartGovernorTest, SacrificeBudget) {
  RestartGovernorOptions unlimited;  // max_restarts = -1
  EXPECT_FALSE(RestartGovernor(10.0, unlimited).ShouldSacrifice(1'000'000));

  RestartGovernorOptions budget;
  budget.max_restarts = 2;
  const RestartGovernor governor(10.0, budget);
  EXPECT_FALSE(governor.ShouldSacrifice(1));
  EXPECT_FALSE(governor.ShouldSacrifice(2));
  EXPECT_TRUE(governor.ShouldSacrifice(3));

  RestartGovernorOptions none;
  none.max_restarts = 0;  // first abort is terminal
  EXPECT_TRUE(RestartGovernor(10.0, none).ShouldSacrifice(1));
}

TEST(ContentionOptionsTest, ValidationRejectsBadRanges) {
  RestartGovernorOptions governor;
  AdmissionOptions admission;
  EXPECT_TRUE(ValidateContentionOptions(governor, admission).ok());

  // A NaN in any one field fails its range.
  for (double* field : {&governor.backoff_factor, &governor.max_backoff,
                        &admission.high_water, &admission.low_water,
                        &admission.interval, &admission.decrease_factor}) {
    const double valid = *field;
    *field = std::nan("");
    EXPECT_FALSE(ValidateContentionOptions(governor, admission).ok());
    *field = valid;
  }

  governor.backoff_factor = 0.5;  // < 1 would shrink the backoff
  EXPECT_FALSE(ValidateContentionOptions(governor, admission).ok());
  governor.backoff_factor = 1.0;

  admission.enabled = true;
  admission.high_water = 0.2;  // below low_water: no hysteresis band
  EXPECT_FALSE(ValidateContentionOptions(governor, admission).ok());
}

// ---------------------------------------------------------------------------
// Admission controller: AIMD with hysteresis.

TEST(AdmissionControllerTest, ContractsRecoversAndHolds) {
  AdmissionOptions opts;
  opts.enabled = true;
  AdmissionController controller(opts, 64);
  EXPECT_EQ(controller.target(), 64);

  // Above the high water: multiplicative contraction.
  EXPECT_TRUE(controller.Evaluate(0.9));
  EXPECT_EQ(controller.target(), 32);
  EXPECT_TRUE(controller.Evaluate(0.61));
  EXPECT_EQ(controller.target(), 16);
  EXPECT_EQ(controller.contractions(), 2);

  // Inside the hysteresis band: hold.
  EXPECT_FALSE(controller.Evaluate(0.45));
  EXPECT_EQ(controller.target(), 16);

  // Below the low water: additive +1 recovery, never past the ceiling.
  EXPECT_TRUE(controller.Evaluate(0.1));
  EXPECT_EQ(controller.target(), 17);
  for (int i = 0; i < 100; ++i) controller.Evaluate(0.0);
  EXPECT_EQ(controller.target(), 64);
  EXPECT_FALSE(controller.Evaluate(0.0));  // already at the ceiling
}

TEST(AdmissionControllerTest, NeverContractsBelowMinMpl) {
  AdmissionOptions opts;
  opts.enabled = true;
  opts.min_mpl = 4;
  AdmissionController controller(opts, 8);
  for (int i = 0; i < 20; ++i) controller.Evaluate(1.0);
  EXPECT_EQ(controller.target(), 4);
}

// The probabilistic engine's adaptive admission steers on the window
// denial rate with integer AIMD: cut to (cap * 3) / 4 above the target
// rate, +1 below half of it, clamped to [1, ntrans]. The controller with
// the options that engine builds must reproduce that arithmetic at every
// cap in 1..1000, at, just below and just above both thresholds, or the
// engine's results move.
TEST(AdmissionControllerTest, MatchesTheDenialRateArithmetic) {
  constexpr int64_t kNtrans = 1000;
  for (const double target_rate : {0.1, 0.3, 0.9}) {
    const auto inline_cap = [&](int64_t cap, double rate) {
      if (rate > target_rate) return std::max<int64_t>(1, (cap * 3) / 4);
      if (rate < 0.5 * target_rate) return std::min(kNtrans, cap + 1);
      return cap;
    };
    std::vector<double> rates;
    for (const double edge : {target_rate, 0.5 * target_rate}) {
      rates.push_back(std::nextafter(edge, 0.0));
      rates.push_back(edge);
      rates.push_back(std::nextafter(edge, 1.0));
    }
    AdmissionController controller(
        AdmissionOptions{.enabled = true,
                         .high_water = target_rate,
                         .low_water = 0.5 * target_rate,
                         .decrease_factor = 0.75,
                         .increase_step = 1,
                         .min_mpl = 1},
        kNtrans);
    while (controller.target() > 1) controller.Evaluate(1.0);
    for (int64_t cap = 1; cap <= kNtrans; ++cap) {
      ASSERT_EQ(controller.target(), cap);
      for (const double rate : rates) {
        AdmissionController probe = controller;
        probe.Evaluate(rate);
        ASSERT_EQ(probe.target(), inline_cap(cap, rate))
            << "target_rate=" << target_rate << " cap=" << cap
            << " rate=" << rate;
      }
      controller.Evaluate(0.0);  // +1 to the next cap
    }
  }
}

// ---------------------------------------------------------------------------
// Engine integration. Contended quick config so policies actually fire.

model::SystemConfig ContendedConfig() {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.ltot = 20;
  cfg.ntrans = 20;
  cfg.maxtransize = 60;
  cfg.tmax = 600.0;
  return cfg;
}

core::SimulationMetrics MustRunPolicy(ContentionPolicyKind kind,
                                      uint64_t seed = 3,
                                      ContentionOptions extra = {}) {
  model::SystemConfig cfg = ContendedConfig();
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.placement = model::Placement::kWorst;
  IncrementalSimulator::Options options;
  options.contention = extra;
  options.contention.policy = kind;
  auto result = IncrementalSimulator::RunOnce(cfg, spec, seed, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value_or(core::SimulationMetrics{});
}

class DeepAuditScope {
 public:
  DeepAuditScope() { sim::invariants::SetDeepAudit(true); }
  ~DeepAuditScope() { sim::invariants::SetDeepAudit(false); }
};

TEST(PolicyEngineTest, EveryPolicyCompletesWorkUnderDeepAudit) {
  // The deep audit checks closed-system conservation (live == running +
  // waiting + backoff + admission-held), queue/table mirror consistency,
  // doomed-never-queued, and waits-for acyclicity for the timestamp and
  // wait-depth policies — after every state transition.
  DeepAuditScope audit;
  for (int k = 0; k < kNumContentionPolicies; ++k) {
    const auto kind = static_cast<ContentionPolicyKind>(k);
    const auto m = MustRunPolicy(kind);
    EXPECT_GT(m.totcom, 0) << ContentionPolicyName(kind);
    EXPECT_GT(m.deadlock_aborts, 0) << ContentionPolicyName(kind);
    EXPECT_EQ(m.deadlock_aborts, m.txn_restarts + m.txn_sacrificed)
        << ContentionPolicyName(kind);
  }
}

TEST(PolicyEngineTest, EveryPolicyIsDeterministicForSeed) {
  for (int k = 0; k < kNumContentionPolicies; ++k) {
    const auto kind = static_cast<ContentionPolicyKind>(k);
    const auto a = MustRunPolicy(kind, 11);
    const auto b = MustRunPolicy(kind, 11);
    EXPECT_EQ(a.totcom, b.totcom) << ContentionPolicyName(kind);
    EXPECT_EQ(a.deadlock_aborts, b.deadlock_aborts)
        << ContentionPolicyName(kind);
    EXPECT_EQ(a.events_executed, b.events_executed)
        << ContentionPolicyName(kind);
  }
}

TEST(PolicyEngineTest, SacrificeBudgetZeroMakesEveryAbortTerminal) {
  ContentionOptions contention;
  contention.governor.max_restarts = 0;
  const auto m =
      MustRunPolicy(ContentionPolicyKind::kDetectRequester, 3, contention);
  EXPECT_GT(m.deadlock_aborts, 0);
  EXPECT_EQ(m.txn_restarts, 0);
  EXPECT_EQ(m.txn_sacrificed, m.deadlock_aborts);
  EXPECT_GT(m.totcom, 0);  // replacements keep the system productive
}

TEST(PolicyEngineTest, AdmissionControlParksWorkUnderOverload) {
  DeepAuditScope audit;
  ContentionOptions contention;
  contention.admission.enabled = true;
  const auto throttled =
      MustRunPolicy(ContentionPolicyKind::kDetectRequester, 3, contention);
  const auto open = MustRunPolicy(ContentionPolicyKind::kDetectRequester, 3);
  // This config is far past the knee: the controller must have contracted
  // and parked real work...
  EXPECT_GT(throttled.avg_admission_held, 0.0);
  EXPECT_GT(throttled.phase_pending_wait, 0.0);
  // ...which is visible as fewer aborts for at least as much work.
  EXPECT_LT(throttled.deadlock_aborts, open.deadlock_aborts);
  EXPECT_GE(throttled.totcom, open.totcom);
  // Admission-disabled runs report identically-zero parking metrics.
  EXPECT_EQ(open.avg_admission_held, 0.0);
  EXPECT_EQ(open.phase_pending_wait, 0.0);
}

TEST(PolicyEngineTest, TimestampPoliciesNeverFormCycles) {
  // Wound-wait and wait-die need no cycle search because edges are
  // ordered by age. The deep audit rebuilds the waits-for graph and
  // asserts acyclicity after every transition; surviving a contended run
  // with zero audit failures IS the deadlock-freedom proof (audit
  // failures throw in this build via ScopedFailureThrow inside RunCell,
  // and fail the EXPECT_TRUE(ok) in MustRunPolicy through the engine's
  // own audit hooks).
  DeepAuditScope audit;
  for (const auto kind :
       {ContentionPolicyKind::kWoundWait, ContentionPolicyKind::kWaitDie}) {
    const auto m = MustRunPolicy(kind, 17);
    EXPECT_GT(m.totcom, 0) << ContentionPolicyName(kind);
  }
}

// ---------------------------------------------------------------------------
// The golden regression: default ContentionOptions reproduce the
// pre-policy engine bit for bit. These four rows were captured from the
// engine BEFORE the pluggable layer existed (same configs, same seeds);
// every value is compared at full precision. If any of them moves, the
// "baseline policy is bit-identical" contract is broken.

struct GoldenRow {
  const char* name;
  model::Placement placement;
  int64_t ltot;
  int64_t ntrans;
  int64_t maxtransize;
  double tmax;
  double read_fraction;
  uint64_t seed;
  double throughput;
  double response;
  int64_t totcom;
  int64_t aborts;
  int64_t lock_requests;
  int64_t lock_denials;
  double p99;
  double phase_lock;
};

TEST(GoldenBaselineTest, DefaultOptionsReproducePrePolicyEngineBitExactly) {
  const GoldenRow rows[] = {
      {"worst_l40", model::Placement::kWorst, 40, 10, 60, 1000.0, 0.0, 12345,
       0.39700000000000002, 23.728351131007944, 397, 748, 21172, 1965,
       162.08859735495543, 21.660104603895874},
      {"worst_l100_rf", model::Placement::kWorst, 100, 20, 100, 1000.0, 0.25,
       999, 0.049000000000000002, 167.11084416774835, 49, 1469, 24633, 4246,
       761.95717281463828, 152.88703691536506},
      {"best_l50", model::Placement::kBest, 50, 10, 500, 1000.0, 0.0, 42,
       0.19800000000000001, 48.698981060605824, 198, 0, 603, 122,
       134.76835666666611, 16.874252525252366},
      {"random_l20", model::Placement::kRandom, 20, 15, 60, 800.0, 0.5, 7,
       0.39000000000000001, 35.028240191588779, 312, 981, 11825, 2703,
       287.62744414855905, 31.596248527317396},
  };
  for (const GoldenRow& row : rows) {
    model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
    cfg.ltot = row.ltot;
    cfg.ntrans = row.ntrans;
    cfg.maxtransize = row.maxtransize;
    cfg.tmax = row.tmax;
    workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
    spec.placement = row.placement;
    IncrementalSimulator::Options options;
    options.read_fraction = row.read_fraction;
    // Explicitly the defaults — the thing this test pins down.
    options.contention = ContentionOptions{};
    const auto m = IncrementalSimulator::RunOnce(cfg, spec, row.seed, options);
    ASSERT_TRUE(m.ok()) << row.name << ": " << m.status().ToString();
    EXPECT_EQ(m->throughput, row.throughput) << row.name;
    EXPECT_EQ(m->response_time, row.response) << row.name;
    EXPECT_EQ(m->totcom, row.totcom) << row.name;
    EXPECT_EQ(m->deadlock_aborts, row.aborts) << row.name;
    EXPECT_EQ(m->lock_requests, row.lock_requests) << row.name;
    EXPECT_EQ(m->lock_denials, row.lock_denials) << row.name;
    EXPECT_EQ(m->response_p99, row.p99) << row.name;
    EXPECT_EQ(m->phase_lock_wait, row.phase_lock) << row.name;
    // And the new accounting stays inert on the default path: every abort
    // restarted, nothing sacrificed, nothing parked.
    EXPECT_EQ(m->txn_restarts, row.aborts) << row.name;
    EXPECT_EQ(m->txn_sacrificed, 0) << row.name;
    EXPECT_EQ(m->avg_admission_held, 0.0) << row.name;
  }
}

}  // namespace
}  // namespace granulock::db
