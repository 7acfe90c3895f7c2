#include "db/contention_policy.h"

#include <algorithm>

#include "core/fault.h"

namespace granulock::db {

using lockmgr::TxnId;
using lockmgr::WaitQueueLockTable;
using lockmgr::WaitsForGraph;

const char* ContentionPolicyName(ContentionPolicyKind kind) {
  switch (kind) {
    case ContentionPolicyKind::kDetectRequester:
      return "detect";
    case ContentionPolicyKind::kDetectFewestLocks:
      return "detect_fewest_locks";
    case ContentionPolicyKind::kDetectYoungest:
      return "detect_youngest";
    case ContentionPolicyKind::kWoundWait:
      return "wound_wait";
    case ContentionPolicyKind::kWaitDie:
      return "wait_die";
    case ContentionPolicyKind::kWaitDepth:
      return "wait_depth";
  }
  return "?";
}

std::string KnownContentionPolicyNames() {
  std::string known;
  for (int p = 0; p < kNumContentionPolicies; ++p) {
    if (p > 0) known += ", ";
    known += ContentionPolicyName(static_cast<ContentionPolicyKind>(p));
  }
  return known;
}

Result<ContentionPolicyKind> ParseContentionPolicy(const std::string& name) {
  for (int p = 0; p < kNumContentionPolicies; ++p) {
    const auto kind = static_cast<ContentionPolicyKind>(p);
    if (name == ContentionPolicyName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown contention policy '" + name +
                                 "' (known: " + KnownContentionPolicyNames() +
                                 ")");
}

WaitsForGraph BuildWaitsForGraph(const WaitQueueLockTable& table) {
  WaitsForGraph graph;
  for (const auto& [waiter, granule] : table.WaitingRequests()) {
    for (TxnId holder : table.Holders(granule)) {
      graph.AddWait(waiter, holder);
    }
  }
  return graph;
}

std::vector<TxnId> BlockersOf(const ConflictRequest& req,
                              const WaitQueueLockTable& table) {
  std::vector<TxnId> blockers;
  for (TxnId holder : table.Holders(req.granule)) {
    if (holder != req.requester) blockers.push_back(holder);
  }
  for (TxnId ahead : table.WaitersAhead(req.requester, req.granule)) {
    blockers.push_back(ahead);
  }
  // Holder order is the table's insertion order and the ahead list is
  // queue order — both deterministic — but policies compare ids, so a
  // sorted, deduplicated list is the cleanest contract.
  std::sort(blockers.begin(), blockers.end());
  blockers.erase(std::unique(blockers.begin(), blockers.end()),
                 blockers.end());
  return blockers;
}

namespace {

class DetectRequesterPolicy final : public ContentionPolicy {
 public:
  ContentionPolicyKind kind() const override {
    return ContentionPolicyKind::kDetectRequester;
  }
  ConflictDecision OnBlock(const ConflictRequest& req,
                           const WaitQueueLockTable& table,
                           const TxnDirectory&) override {
    if (BuildWaitsForGraph(table).FindCycleFrom(req.requester).empty()) {
      return {};
    }
    return {{req.requester}};
  }
};

/// Shared shape of the two victim-selecting detectors: find the cycle
/// through the requester, pick the member minimizing a cost, preferring
/// the youngest (largest id) on ties.
template <typename CostFn>
ConflictDecision DetectWithVictim(const ConflictRequest& req,
                                  const WaitQueueLockTable& table,
                                  CostFn cost) {
  const std::vector<TxnId> cycle =
      BuildWaitsForGraph(table).FindCycleFrom(req.requester);
  if (cycle.empty()) return {};
  TxnId victim = cycle.front();
  int64_t victim_cost = cost(victim);
  for (size_t i = 1; i < cycle.size(); ++i) {
    const int64_t c = cost(cycle[i]);
    if (c < victim_cost || (c == victim_cost && cycle[i] > victim)) {
      victim = cycle[i];
      victim_cost = c;
    }
  }
  return {{victim}};
}

class DetectFewestLocksPolicy final : public ContentionPolicy {
 public:
  ContentionPolicyKind kind() const override {
    return ContentionPolicyKind::kDetectFewestLocks;
  }
  ConflictDecision OnBlock(const ConflictRequest& req,
                           const WaitQueueLockTable& table,
                           const TxnDirectory&) override {
    return DetectWithVictim(
        req, table, [&table](TxnId txn) { return table.HeldCount(txn); });
  }
};

class DetectYoungestPolicy final : public ContentionPolicy {
 public:
  ContentionPolicyKind kind() const override {
    return ContentionPolicyKind::kDetectYoungest;
  }
  ConflictDecision OnBlock(const ConflictRequest& req,
                           const WaitQueueLockTable& table,
                           const TxnDirectory& txns) override {
    return DetectWithVictim(
        req, table, [&txns](TxnId txn) { return txns.RestartsOf(txn); });
  }
};

class WoundWaitPolicy final : public ContentionPolicy {
 public:
  ContentionPolicyKind kind() const override {
    return ContentionPolicyKind::kWoundWait;
  }
  ConflictDecision OnBlock(const ConflictRequest& req,
                           const WaitQueueLockTable& table,
                           const TxnDirectory& txns) override {
    // The requester wounds every younger blocker; older blockers it
    // waits for. Already-doomed blockers are dying on their own. After
    // the wounds land every waits-for edge from the requester reaches an
    // older or doomed transaction, and doomed transactions never queue,
    // so ids strictly decrease along waiting chains: no cycle.
    ConflictDecision decision;
    for (TxnId blocker : BlockersOf(req, table)) {
      if (blocker > req.requester && !txns.IsDoomed(blocker)) {
        decision.victims.push_back(blocker);
      }
    }
    return decision;
  }
};

class WaitDiePolicy final : public ContentionPolicy {
 public:
  ContentionPolicyKind kind() const override {
    return ContentionPolicyKind::kWaitDie;
  }
  ConflictDecision OnBlock(const ConflictRequest& req,
                           const WaitQueueLockTable& table,
                           const TxnDirectory& txns) override {
    // The requester may wait only for strictly older (or doomed — they
    // hold no future) blockers... inverted: it *dies* when any live
    // blocker is older. Surviving waits point old -> young, so ids
    // strictly increase along waiting chains: no cycle.
    for (TxnId blocker : BlockersOf(req, table)) {
      if (blocker < req.requester && !txns.IsDoomed(blocker)) {
        return {{req.requester}};
      }
    }
    return {};
  }
};

class WaitDepthPolicy final : public ContentionPolicy {
 public:
  ContentionPolicyKind kind() const override {
    return ContentionPolicyKind::kWaitDepth;
  }
  ConflictDecision OnBlock(const ConflictRequest& req,
                           const WaitQueueLockTable& table,
                           const TxnDirectory&) override {
    // WDL(1): the requester may wait only at depth one — at the head of
    // the queue, on active holders, while nobody waits on its own locks.
    // Any deeper nesting aborts the requester, so no waits-for edge ever
    // enters a blocked transaction and cycles cannot form.
    if (!table.WaitersAhead(req.requester, req.granule).empty()) {
      return {{req.requester}};
    }
    for (TxnId holder : table.Holders(req.granule)) {
      if (holder != req.requester && table.IsQueued(holder)) {
        return {{req.requester}};
      }
    }
    if (table.HasOtherWaitersOnHeldGranules(req.requester)) {
      return {{req.requester}};
    }
    return {};
  }
};

}  // namespace

std::unique_ptr<ContentionPolicy> MakeContentionPolicy(
    ContentionPolicyKind kind) {
  switch (kind) {
    case ContentionPolicyKind::kDetectRequester:
      return std::make_unique<DetectRequesterPolicy>();
    case ContentionPolicyKind::kDetectFewestLocks:
      return std::make_unique<DetectFewestLocksPolicy>();
    case ContentionPolicyKind::kDetectYoungest:
      return std::make_unique<DetectYoungestPolicy>();
    case ContentionPolicyKind::kWoundWait:
      return std::make_unique<WoundWaitPolicy>();
    case ContentionPolicyKind::kWaitDie:
      return std::make_unique<WaitDiePolicy>();
    case ContentionPolicyKind::kWaitDepth:
      return std::make_unique<WaitDepthPolicy>();
  }
  return std::make_unique<DetectRequesterPolicy>();
}

// ---------------------------------------------------------------------

RestartGovernor::RestartGovernor(double base_delay,
                                 RestartGovernorOptions options)
    : base_delay_(base_delay), options_(options) {}

bool RestartGovernor::ShouldSacrifice(int64_t restarts) const {
  return options_.max_restarts >= 0 && restarts > options_.max_restarts;
}

double RestartGovernor::BackoffMean(int64_t restarts) const {
  // Iterative multiply (not pow): the factor == 1 case stays exactly
  // base_delay, keeping the baseline governor's draws bit-identical to
  // the historical fixed-mean backoff.
  double mean = base_delay_;
  if (options_.backoff_factor != 1.0) {
    for (int64_t i = 1; i < restarts; ++i) {
      mean *= options_.backoff_factor;
      if (options_.max_backoff > 0.0 && mean >= options_.max_backoff) break;
    }
  }
  if (options_.max_backoff > 0.0 && mean > options_.max_backoff) {
    mean = options_.max_backoff;
  }
  return mean;
}

double RestartGovernor::BackoffDelay(int64_t restarts, Rng& rng) const {
  return rng.Exponential(BackoffMean(restarts));
}

// ---------------------------------------------------------------------

Status ValidateContentionOptions(const RestartGovernorOptions& governor,
                                 const core::AdmissionOptions& admission) {
  // Each check negates the accepted range, so a NaN fails it.
  if (!(governor.backoff_factor >= 1.0)) {
    return Status::InvalidArgument("backoff_factor must be >= 1");
  }
  if (!(governor.max_backoff >= 0.0)) {
    return Status::InvalidArgument("max_backoff must be >= 0 (0 = uncapped)");
  }
  if (!(admission.high_water > 0.0 && admission.high_water <= 1.0 &&
        admission.low_water >= 0.0 &&
        admission.low_water < admission.high_water)) {
    return Status::InvalidArgument(
        "admission waters must satisfy 0 <= low < high <= 1");
  }
  if (!(admission.interval > 0.0)) {
    return Status::InvalidArgument("admission interval must be positive");
  }
  if (!(admission.decrease_factor > 0.0 && admission.decrease_factor < 1.0)) {
    return Status::InvalidArgument(
        "admission decrease_factor must be in (0, 1)");
  }
  if (admission.increase_step < 1) {
    return Status::InvalidArgument("admission increase_step must be >= 1");
  }
  if (admission.min_mpl < 1) {
    return Status::InvalidArgument("admission min_mpl must be >= 1");
  }
  return Status::OK();
}

void MaybeInjectVictimFlip(uint64_t key, std::vector<TxnId>* victims) {
  if (victims->empty()) return;
  auto& injector = fault::Injector::Global();
  if (!injector.armed()) return;  // inert fast path
  if (injector.ShouldFire(fault::InjectionPoint::kPolicyVictimFlip, key)) {
    // Txn id 0 is never assigned (the engine numbers from 1), so the
    // flipped decision fails the engine's victim lookup and the error is
    // contained by RunCell.
    (*victims)[0] = 0;
  }
}

}  // namespace granulock::db
