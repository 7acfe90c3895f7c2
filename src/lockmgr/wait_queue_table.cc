#include "lockmgr/wait_queue_table.h"

#include <algorithm>

#include "sim/invariants.h"
#include "util/logging.h"

namespace granulock::lockmgr {

WaitQueueLockTable::WaitQueueLockTable(int64_t num_granules)
    : num_granules_(num_granules) {
  GRANULOCK_CHECK_GE(num_granules, 1);
}

bool WaitQueueLockTable::CompatibleWithHolders(const GranuleState& state,
                                               TxnId txn,
                                               LockMode mode) const {
  for (const auto& [holder, held_mode] : state.holders) {
    if (holder == txn) continue;
    if (!Compatible(held_mode, mode)) return false;
  }
  return true;
}

void WaitQueueLockTable::GrantTo(GranuleState& state, int64_t granule,
                                 TxnId txn, LockMode mode) {
  for (auto& [holder, held_mode] : state.holders) {
    if (holder == txn) {
      held_mode = Supremum(held_mode, mode);
      return;  // upgrade in place; already recorded in held_by_txn_
    }
  }
  state.holders.emplace_back(txn, mode);
  held_by_txn_[txn].push_back(granule);
}

WaitQueueLockTable::AcquireResult WaitQueueLockTable::Acquire(TxnId txn,
                                                              int64_t granule,
                                                              LockMode mode) {
  GRANULOCK_CHECK_GE(granule, 0);
  GRANULOCK_CHECK_LT(granule, num_granules_);
  GRANULOCK_CHECK(queued_on_.find(txn) == queued_on_.end())
      << "txn " << txn << " already has a queued request";
  GranuleState& state = granules_[granule];
  if (HeldMode(txn, granule) != LockMode::kNL &&
      Covers(HeldMode(txn, granule), mode)) {
    return AcquireResult::kGranted;  // already covered
  }
  if (state.queue.empty() && CompatibleWithHolders(state, txn, mode)) {
    GrantTo(state, granule, txn, mode);
    return AcquireResult::kGranted;
  }
  state.queue.push_back(Waiter{txn, mode});
  queued_on_[txn] = granule;
  ++waiting_count_;
  return AcquireResult::kQueued;
}

void WaitQueueLockTable::DrainQueue(int64_t granule,
                                    std::vector<TxnId>* granted) {
  auto it = granules_.find(granule);
  if (it == granules_.end()) return;
  GranuleState& state = it->second;
  while (!state.queue.empty()) {
    const Waiter& front = state.queue.front();
    if (!CompatibleWithHolders(state, front.txn, front.mode)) break;
    GrantTo(state, granule, front.txn, front.mode);
    granted->push_back(front.txn);
    queued_on_.erase(front.txn);
    --waiting_count_;
    state.queue.pop_front();
  }
  if (state.holders.empty() && state.queue.empty()) {
    granules_.erase(it);
  }
}

std::vector<TxnId> WaitQueueLockTable::ReleaseAll(TxnId txn) {
  std::vector<TxnId> granted;
  auto it = held_by_txn_.find(txn);
  if (it == held_by_txn_.end()) return granted;
  const std::vector<int64_t> held = std::move(it->second);
  held_by_txn_.erase(it);
  for (int64_t granule : held) {
    auto git = granules_.find(granule);
    GRANULOCK_CHECK(git != granules_.end());
    auto& holders = git->second.holders;
    holders.erase(std::remove_if(holders.begin(), holders.end(),
                                 [txn](const auto& h) {
                                   return h.first == txn;
                                 }),
                  holders.end());
    DrainQueue(granule, &granted);
  }
  return granted;
}

std::vector<TxnId> WaitQueueLockTable::Abort(TxnId txn) {
  // Remove the queued request first so it cannot be granted by the
  // release below.
  auto qit = queued_on_.find(txn);
  if (qit != queued_on_.end()) {
    const int64_t granule = qit->second;
    auto git = granules_.find(granule);
    GRANULOCK_CHECK(git != granules_.end());
    auto& queue = git->second.queue;
    auto wit = std::find_if(queue.begin(), queue.end(), [txn](const Waiter& w) {
      return w.txn == txn;
    });
    GRANULOCK_CHECK(wit != queue.end());
    queue.erase(wit);
    queued_on_.erase(qit);
    --waiting_count_;
    // Removing a queued head may unblock those behind it.
    std::vector<TxnId> granted;
    DrainQueue(granule, &granted);
    auto more = ReleaseAll(txn);
    granted.insert(granted.end(), more.begin(), more.end());
    return granted;
  }
  return ReleaseAll(txn);
}

std::vector<std::pair<TxnId, int64_t>> WaitQueueLockTable::WaitingRequests()
    const {
  std::vector<std::pair<TxnId, int64_t>> out;
  out.reserve(queued_on_.size());
  for (const auto& [txn, granule] : queued_on_) {
    out.emplace_back(txn, granule);
  }
  return out;
}

std::vector<TxnId> WaitQueueLockTable::HoldingTxns() const {
  std::vector<TxnId> out;
  out.reserve(held_by_txn_.size());
  for (const auto& [txn, granules] : held_by_txn_) out.push_back(txn);
  return out;
}

int64_t WaitQueueLockTable::LockedGranules() const {
  int64_t count = 0;
  for (const auto& [granule, state] : granules_) {
    if (!state.holders.empty()) ++count;
  }
  return count;
}

std::vector<TxnId> WaitQueueLockTable::Holders(int64_t granule) const {
  std::vector<TxnId> out;
  auto it = granules_.find(granule);
  if (it == granules_.end()) return out;
  out.reserve(it->second.holders.size());
  for (const auto& [holder, mode] : it->second.holders) {
    out.push_back(holder);
  }
  return out;
}

void WaitQueueLockTable::CheckConsistency() const {
  // Holder maps mirror each other (as in LockTable).
  size_t holds_from_txns = 0;
  for (const auto& [txn, granules] : held_by_txn_) {
    GRANULOCK_AUDIT_CHECK(!granules.empty())
        << "txn " << txn << " is indexed but holds nothing";
    holds_from_txns += granules.size();
    for (const int64_t granule : granules) {
      GRANULOCK_AUDIT_CHECK(granule >= 0 && granule < num_granules_)
          << "txn " << txn << " holds out-of-range granule " << granule;
      auto git = granules_.find(granule);
      if (git == granules_.end()) {
        GRANULOCK_AUDIT_CHECK(false)
            << "txn " << txn << " claims granule " << granule
            << " but the granule has no state";
        continue;
      }
      const auto& holders = git->second.holders;
      const size_t entries = static_cast<size_t>(
          std::count_if(holders.begin(), holders.end(),
                        [txn = txn](const auto& h) { return h.first == txn; }));
      GRANULOCK_AUDIT_CHECK_EQ(entries, 1u)
          << "txn " << txn << " appears " << entries
          << " times among holders of granule " << granule;
    }
  }
  // Queue conservation plus the no-missed-grant property.
  size_t holds_from_granules = 0;
  size_t queued_from_granules = 0;
  for (const auto& [granule, state] : granules_) {
    GRANULOCK_AUDIT_CHECK(!state.holders.empty() || !state.queue.empty())
        << "granule " << granule << " has an empty state";
    holds_from_granules += state.holders.size();
    queued_from_granules += state.queue.size();
    for (const auto& [holder, mode] : state.holders) {
      GRANULOCK_AUDIT_CHECK(mode != LockMode::kNL)
          << "granule " << granule << " holds a kNL entry for txn "
          << holder;
      GRANULOCK_AUDIT_CHECK(held_by_txn_.find(holder) != held_by_txn_.end())
          << "holder " << holder << " of granule " << granule
          << " is missing from the per-txn index";
    }
    for (const Waiter& waiter : state.queue) {
      auto qit = queued_on_.find(waiter.txn);
      GRANULOCK_AUDIT_CHECK(qit != queued_on_.end() &&
                            qit->second == granule)
          << "txn " << waiter.txn << " queues on granule " << granule
          << " but queued_on_ disagrees";
    }
    if (!state.queue.empty()) {
      const Waiter& head = state.queue.front();
      GRANULOCK_AUDIT_CHECK(
          !CompatibleWithHolders(state, head.txn, head.mode))
          << "granule " << granule << " queue head txn " << head.txn
          << " is compatible with all holders: a grant was missed";
    }
  }
  GRANULOCK_AUDIT_CHECK_EQ(holds_from_txns, holds_from_granules);
  GRANULOCK_AUDIT_CHECK_EQ(static_cast<size_t>(waiting_count_),
                           queued_from_granules);
  GRANULOCK_AUDIT_CHECK_EQ(queued_on_.size(), queued_from_granules);
  // Each queued transaction appears exactly once in the queue it points
  // at (the per-granule walk above checked membership; this rules out
  // duplicates within one queue).
  for (const auto& [txn, granule] : queued_on_) {
    auto git = granules_.find(granule);
    if (git == granules_.end()) {
      GRANULOCK_AUDIT_CHECK(false)
          << "txn " << txn << " queues on granule " << granule
          << " which has no state";
      continue;
    }
    const auto& queue = git->second.queue;
    const size_t entries = static_cast<size_t>(
        std::count_if(queue.begin(), queue.end(),
                      [txn = txn](const Waiter& w) { return w.txn == txn; }));
    GRANULOCK_AUDIT_CHECK_EQ(entries, 1u)
        << "txn " << txn << " appears " << entries
        << " times in the queue of granule " << granule;
  }
}

LockMode WaitQueueLockTable::HeldMode(TxnId txn, int64_t granule) const {
  auto it = granules_.find(granule);
  if (it == granules_.end()) return LockMode::kNL;
  for (const auto& [holder, mode] : it->second.holders) {
    if (holder == txn) return mode;
  }
  return LockMode::kNL;
}

int64_t WaitQueueLockTable::HeldCount(TxnId txn) const {
  auto it = held_by_txn_.find(txn);
  return it == held_by_txn_.end() ? 0
                                  : static_cast<int64_t>(it->second.size());
}

std::vector<TxnId> WaitQueueLockTable::WaitersAhead(TxnId txn,
                                                    int64_t granule) const {
  std::vector<TxnId> ahead;
  auto it = granules_.find(granule);
  if (it == granules_.end()) return ahead;
  for (const Waiter& waiter : it->second.queue) {
    if (waiter.txn == txn) return ahead;
    ahead.push_back(waiter.txn);
  }
  ahead.clear();  // txn is not queued here at all
  return ahead;
}

bool WaitQueueLockTable::HasOtherWaitersOnHeldGranules(TxnId txn) const {
  auto it = held_by_txn_.find(txn);
  if (it == held_by_txn_.end()) return false;
  for (const int64_t granule : it->second) {
    auto git = granules_.find(granule);
    if (git == granules_.end()) continue;
    for (const Waiter& waiter : git->second.queue) {
      if (waiter.txn != txn) return true;
    }
  }
  return false;
}

}  // namespace granulock::lockmgr
