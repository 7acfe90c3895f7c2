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
    for (const auto& holder : table.Holders(granule)) {
      graph.AddWait(waiter, holder.txn);
    }
  }
  return graph;
}

namespace {

/// Calls `fn` for each transaction blocking `req`: the other holders of
/// its granule in grant order, then the waiters ahead of it in queue
/// order. A holder queued ahead for an upgrade is visited twice.
template <typename Fn>
void ForEachBlocker(const ConflictRequest& req,
                    const WaitQueueLockTable& table, Fn&& fn) {
  for (const auto& holder : table.Holders(req.granule)) {
    if (holder.txn != req.requester) fn(holder.txn);
  }
  table.ForEachWaiterAhead(req.requester, req.granule, fn);
}

}  // namespace

void BlockersOf(const ConflictRequest& req, const WaitQueueLockTable& table,
                std::vector<TxnId>* out) {
  out->clear();
  ForEachBlocker(req, table, [out](TxnId blocker) { out->push_back(blocker); });
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

namespace {

class DetectRequesterPolicy final : public ContentionPolicy {
 public:
  ContentionPolicyKind kind() const override {
    return ContentionPolicyKind::kDetectRequester;
  }
  void OnBlock(const ConflictRequest& req, const WaitQueueLockTable& table,
               const TxnDirectory&, std::vector<TxnId>* victims) override {
    victims->clear();
    if (table.OnWaitsForCycle(req.requester, &walk_)) {
      victims->push_back(req.requester);
    }
  }

 private:
  WaitQueueLockTable::CycleWalk walk_;
};

/// Shared shape of the two victim-selecting detectors: find the cycle
/// through the requester, pick the member minimizing a cost, preferring
/// the youngest (largest id) on ties. The cycle found, and so the victim,
/// follows the rebuilt graph's adjacency order, which the checked-in
/// shootout baseline pins; these two detectors therefore keep the graph.
template <typename CostFn>
void DetectWithVictim(const ConflictRequest& req,
                      const WaitQueueLockTable& table, CostFn cost,
                      std::vector<TxnId>* victims) {
  victims->clear();
  const std::vector<TxnId> cycle =
      BuildWaitsForGraph(table).FindCycleFrom(req.requester);
  if (cycle.empty()) return;
  TxnId victim = cycle.front();
  int64_t victim_cost = cost(victim);
  for (size_t i = 1; i < cycle.size(); ++i) {
    const int64_t c = cost(cycle[i]);
    if (c < victim_cost || (c == victim_cost && cycle[i] > victim)) {
      victim = cycle[i];
      victim_cost = c;
    }
  }
  victims->push_back(victim);
}

class DetectFewestLocksPolicy final : public ContentionPolicy {
 public:
  ContentionPolicyKind kind() const override {
    return ContentionPolicyKind::kDetectFewestLocks;
  }
  void OnBlock(const ConflictRequest& req, const WaitQueueLockTable& table,
               const TxnDirectory&, std::vector<TxnId>* victims) override {
    DetectWithVictim(
        req, table, [&table](TxnId txn) { return table.HeldCount(txn); },
        victims);
  }
};

class DetectYoungestPolicy final : public ContentionPolicy {
 public:
  ContentionPolicyKind kind() const override {
    return ContentionPolicyKind::kDetectYoungest;
  }
  void OnBlock(const ConflictRequest& req, const WaitQueueLockTable& table,
               const TxnDirectory& txns,
               std::vector<TxnId>* victims) override {
    DetectWithVictim(
        req, table, [&txns](TxnId txn) { return txns.RestartsOf(txn); },
        victims);
  }
};

class WoundWaitPolicy final : public ContentionPolicy {
 public:
  ContentionPolicyKind kind() const override {
    return ContentionPolicyKind::kWoundWait;
  }
  void OnBlock(const ConflictRequest& req, const WaitQueueLockTable& table,
               const TxnDirectory& txns,
               std::vector<TxnId>* victims) override {
    // The requester wounds every younger blocker, oldest first; older
    // blockers it waits for. Already-doomed blockers are dying on their
    // own. After the wounds land every waits-for edge from the requester
    // reaches an older or doomed transaction, and doomed transactions
    // never queue, so ids strictly decrease along waiting chains: no
    // cycle.
    BlockersOf(req, table, victims);
    std::erase_if(*victims, [&](TxnId blocker) {
      return blocker <= req.requester || txns.IsDoomed(blocker);
    });
  }
};

class WaitDiePolicy final : public ContentionPolicy {
 public:
  ContentionPolicyKind kind() const override {
    return ContentionPolicyKind::kWaitDie;
  }
  void OnBlock(const ConflictRequest& req, const WaitQueueLockTable& table,
               const TxnDirectory& txns,
               std::vector<TxnId>* victims) override {
    // The requester *dies* when any live blocker is older; it waits only
    // for younger (or doomed — they hold no future) blockers. Surviving
    // waits point old -> young, so ids strictly increase along waiting
    // chains: no cycle.
    bool dies = false;
    ForEachBlocker(req, table, [&](TxnId blocker) {
      dies = dies || (blocker < req.requester && !txns.IsDoomed(blocker));
    });
    victims->clear();
    if (dies) victims->push_back(req.requester);
  }
};

class WaitDepthPolicy final : public ContentionPolicy {
 public:
  ContentionPolicyKind kind() const override {
    return ContentionPolicyKind::kWaitDepth;
  }
  void OnBlock(const ConflictRequest& req, const WaitQueueLockTable& table,
               const TxnDirectory&, std::vector<TxnId>* victims) override {
    // WDL(1): the requester may wait only at depth one — at the head of
    // the queue, on active holders, while nobody waits on its own locks.
    // Any deeper nesting aborts the requester, so no waits-for edge ever
    // enters a blocked transaction and cycles cannot form.
    const auto deeper = [&] {
      bool ahead = false;
      table.ForEachWaiterAhead(req.requester, req.granule,
                               [&ahead](TxnId) { ahead = true; });
      if (ahead) return true;
      for (const auto& holder : table.Holders(req.granule)) {
        if (holder.txn != req.requester && table.IsQueued(holder.txn)) {
          return true;
        }
      }
      return table.HasOtherWaitersOnHeldGranules(req.requester);
    };
    victims->clear();
    if (deeper()) victims->push_back(req.requester);
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
