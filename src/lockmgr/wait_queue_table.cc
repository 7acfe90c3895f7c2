#include "lockmgr/wait_queue_table.h"

#include <algorithm>

#include "sim/invariants.h"
#include "util/logging.h"

namespace granulock::lockmgr {

WaitQueueLockTable::WaitQueueLockTable(int64_t num_granules)
    : num_granules_(num_granules),
      granules_(static_cast<size_t>(std::max<int64_t>(num_granules, 0))) {
  GRANULOCK_CHECK_GE(num_granules, 1);
}

// --- The per-transaction slots and their index --------------------------

uint32_t WaitQueueLockTable::AddSlot(TxnId txn) {
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].txn = txn;
  index_.Insert(txn, slot);
  return slot;
}

void WaitQueueLockTable::MaybeFreeSlot(uint32_t slot) {
  TxnSlot& state = slots_[slot];
  if (!state.held.empty() || state.queued_on >= 0) return;
  index_.Erase(state.txn);
  state.txn = 0;
  free_slots_.push_back(slot);
}

// --- Locking ------------------------------------------------------------

bool WaitQueueLockTable::CompatibleWithHolders(const GranuleState& state,
                                               TxnId txn,
                                               LockMode mode) const {
  for (const Holder& holder : state.holders) {
    if (holder.txn == txn) continue;
    if (!Compatible(holder.mode, mode)) return false;
  }
  return true;
}

void WaitQueueLockTable::GrantTo(GranuleState& state, int64_t granule,
                                 uint32_t slot, LockMode mode) {
  const TxnId txn = slots_[slot].txn;
  for (Holder& holder : state.holders) {
    if (holder.txn == txn) {
      holder.mode = Supremum(holder.mode, mode);
      return;  // upgrade in place; the slot already lists the granule
    }
  }
  state.holders.push_back(Holder{txn, mode});
  slots_[slot].held.push_back(granule);
}

WaitQueueLockTable::AcquireResult WaitQueueLockTable::Acquire(TxnId txn,
                                                              int64_t granule,
                                                              LockMode mode) {
  GRANULOCK_CHECK_GE(granule, 0);
  GRANULOCK_CHECK_LT(granule, num_granules_);
  uint32_t slot = FindSlot(txn);
  GRANULOCK_CHECK(slot == kNoSlot || slots_[slot].queued_on < 0)
      << "txn " << txn << " already has a queued request";
  const LockMode held = HeldMode(txn, granule);
  if (held != LockMode::kNL && Covers(held, mode)) {
    return AcquireResult::kGranted;  // already covered
  }
  if (slot == kNoSlot) slot = AddSlot(txn);
  GranuleState& state = granules_[static_cast<size_t>(granule)];
  if (state.queue.empty() && CompatibleWithHolders(state, txn, mode)) {
    GrantTo(state, granule, slot, mode);
    return AcquireResult::kGranted;
  }
  state.queue.push_back(Waiter{txn, mode});
  slots_[slot].queued_on = granule;
  ++waiting_count_;
  return AcquireResult::kQueued;
}

void WaitQueueLockTable::DrainQueue(int64_t granule,
                                    std::vector<TxnId>* granted) {
  GranuleState& state = granules_[static_cast<size_t>(granule)];
  while (!state.queue.empty()) {
    const Waiter front = state.queue.front();
    if (!CompatibleWithHolders(state, front.txn, front.mode)) break;
    state.queue.pop_front();
    --waiting_count_;
    const uint32_t slot = FindSlot(front.txn);
    slots_[slot].queued_on = -1;
    GrantTo(state, granule, slot, front.mode);
    granted->push_back(front.txn);
  }
}

void WaitQueueLockTable::ReleaseSlot(uint32_t slot,
                                     std::vector<TxnId>* granted) {
  const TxnId txn = slots_[slot].txn;
  // Releasing may grant this transaction's own queued upgrade, which
  // appends to its held list: only the first `count` entries go.
  const size_t count = slots_[slot].held.size();
  for (size_t i = 0; i < count; ++i) {
    const int64_t granule = slots_[slot].held[i];
    auto& holders = granules_[static_cast<size_t>(granule)].holders;
    auto it = std::find_if(holders.begin(), holders.end(),
                           [txn](const Holder& h) { return h.txn == txn; });
    GRANULOCK_CHECK(it != holders.end());
    holders.erase(it);
    DrainQueue(granule, granted);
  }
  auto& held = slots_[slot].held;
  held.erase(held.begin(), held.begin() + static_cast<ptrdiff_t>(count));
  MaybeFreeSlot(slot);
}

void WaitQueueLockTable::ReleaseAll(TxnId txn, std::vector<TxnId>* granted) {
  const uint32_t slot = FindSlot(txn);
  if (slot != kNoSlot) ReleaseSlot(slot, granted);
}

std::vector<TxnId> WaitQueueLockTable::ReleaseAll(TxnId txn) {
  std::vector<TxnId> granted;
  ReleaseAll(txn, &granted);
  return granted;
}

void WaitQueueLockTable::Abort(TxnId txn, std::vector<TxnId>* granted) {
  const uint32_t slot = FindSlot(txn);
  if (slot == kNoSlot) return;
  // Remove the queued request first so it cannot be granted by the
  // release below.
  const int64_t granule = slots_[slot].queued_on;
  if (granule >= 0) {
    auto& queue = granules_[static_cast<size_t>(granule)].queue;
    size_t i = 0;
    while (i < queue.size() && queue[i].txn != txn) ++i;
    GRANULOCK_CHECK_LT(i, queue.size());
    queue.erase(i);
    slots_[slot].queued_on = -1;
    --waiting_count_;
    // Removing a queued head may unblock those behind it.
    DrainQueue(granule, granted);
  }
  ReleaseSlot(slot, granted);
}

std::vector<TxnId> WaitQueueLockTable::Abort(TxnId txn) {
  std::vector<TxnId> granted;
  Abort(txn, &granted);
  return granted;
}

// --- Queries ------------------------------------------------------------

LockMode WaitQueueLockTable::HeldMode(TxnId txn, int64_t granule) const {
  if (granule < 0 || granule >= num_granules_) return LockMode::kNL;
  for (const Holder& holder : Holders(granule)) {
    if (holder.txn == txn) return holder.mode;
  }
  return LockMode::kNL;
}

int64_t WaitQueueLockTable::HeldCount(TxnId txn) const {
  const uint32_t slot = FindSlot(txn);
  return slot == kNoSlot ? 0
                         : static_cast<int64_t>(slots_[slot].held.size());
}

bool WaitQueueLockTable::IsQueued(TxnId txn) const {
  const uint32_t slot = FindSlot(txn);
  return slot != kNoSlot && slots_[slot].queued_on >= 0;
}

bool WaitQueueLockTable::HasOtherWaitersOnHeldGranules(TxnId txn) const {
  const uint32_t slot = FindSlot(txn);
  if (slot == kNoSlot) return false;
  for (const int64_t granule : slots_[slot].held) {
    const auto& queue = granules_[static_cast<size_t>(granule)].queue;
    for (size_t i = 0; i < queue.size(); ++i) {
      if (queue[i].txn != txn) return true;
    }
  }
  return false;
}

bool WaitQueueLockTable::OnWaitsForCycle(TxnId txn, CycleWalk* walk) const {
  const uint32_t start = FindSlot(txn);
  if (start == kNoSlot) return false;
  if (walk->marks.size() < slots_.size()) {
    walk->marks.resize(slots_.size());
    walk->stack.reserve(slots_.size());  // each slot is pushed at most once
  }
  if (++walk->epoch == 0) {  // wrapped: stale stamps could match again
    std::fill(walk->marks.begin(), walk->marks.end(), 0);
    walk->epoch = 1;
  }
  walk->marks[start] = walk->epoch;
  walk->stack.assign(1, start);
  while (!walk->stack.empty()) {
    const TxnSlot& waiter = slots_[walk->stack.back()];
    walk->stack.pop_back();
    if (waiter.queued_on < 0) continue;  // running: no outgoing edge
    for (const Holder& holder : Holders(waiter.queued_on)) {
      if (holder.txn == waiter.txn) continue;  // waits on others only
      if (holder.txn == txn) return true;
      const uint32_t next = FindSlot(holder.txn);
      if (walk->marks[next] == walk->epoch) continue;
      walk->marks[next] = walk->epoch;
      walk->stack.push_back(next);
    }
  }
  return false;
}

int64_t WaitQueueLockTable::LockedGranules() const {
  int64_t count = 0;
  for (const GranuleState& state : granules_) {
    if (!state.holders.empty()) ++count;
  }
  return count;
}

std::vector<std::pair<TxnId, int64_t>> WaitQueueLockTable::WaitingRequests()
    const {
  std::vector<std::pair<TxnId, int64_t>> out;
  out.reserve(static_cast<size_t>(waiting_count_));
  for (const TxnSlot& slot : slots_) {
    if (slot.queued_on >= 0) out.emplace_back(slot.txn, slot.queued_on);
  }
  return out;
}

std::vector<TxnId> WaitQueueLockTable::HoldingTxns() const {
  std::vector<TxnId> out;
  for (const TxnSlot& slot : slots_) {
    if (!slot.held.empty()) out.push_back(slot.txn);
  }
  return out;
}

// --- Audit --------------------------------------------------------------

void WaitQueueLockTable::CheckConsistency() const {
  const auto in_range = [this](int64_t granule) {
    return granule >= 0 && granule < num_granules_;
  };
  // The free list, the index and the live slots.
  std::vector<bool> is_free(slots_.size(), false);
  for (const uint32_t slot : free_slots_) {
    const bool valid = slot < slots_.size() && !is_free[slot];
    GRANULOCK_AUDIT_CHECK(valid)
        << "free list names slot " << slot << " twice or out of range";
    if (valid) is_free[slot] = true;
  }
  size_t indexed = 0;
  index_.ForEach([&](TxnId txn, uint32_t slot) {
    ++indexed;
    GRANULOCK_AUDIT_CHECK(slot < slots_.size() && !is_free[slot] &&
                          slots_[slot].txn == txn)
        << "index entry of txn " << txn << " names slot " << slot
        << ", which is free or another transaction's";
  });
  GRANULOCK_AUDIT_CHECK_EQ(indexed, index_.size());

  size_t live = 0;
  size_t holds_from_slots = 0;
  size_t queued_slots = 0;
  for (uint32_t s = 0; s < slots_.size(); ++s) {
    const TxnSlot& slot = slots_[s];
    if (is_free[s]) {
      GRANULOCK_AUDIT_CHECK(slot.held.empty() && slot.queued_on < 0)
          << "free slot " << s << " still holds or waits";
      continue;
    }
    ++live;
    GRANULOCK_AUDIT_CHECK(!slot.held.empty() || slot.queued_on >= 0)
        << "txn " << slot.txn << " holds and waits for nothing, but its "
        << "slot " << s << " is not free";
    GRANULOCK_AUDIT_CHECK_EQ(FindSlot(slot.txn), s)
        << "the index does not find the slot of txn " << slot.txn;
    holds_from_slots += slot.held.size();
    for (const int64_t granule : slot.held) {
      if (!in_range(granule)) {
        GRANULOCK_AUDIT_CHECK(false) << "txn " << slot.txn
                                     << " holds out-of-range granule "
                                     << granule;
        continue;
      }
      const auto holders = Holders(granule);
      const auto entries = std::count_if(
          holders.begin(), holders.end(),
          [&slot](const Holder& h) { return h.txn == slot.txn; });
      GRANULOCK_AUDIT_CHECK_EQ(entries, 1)
          << "txn " << slot.txn << " appears " << entries
          << " times among holders of granule " << granule;
    }
    if (slot.queued_on < 0) continue;
    ++queued_slots;
    if (!in_range(slot.queued_on)) {
      GRANULOCK_AUDIT_CHECK(false) << "txn " << slot.txn
                                   << " queues on out-of-range granule "
                                   << slot.queued_on;
      continue;
    }
    const auto& queue = granules_[static_cast<size_t>(slot.queued_on)].queue;
    int64_t entries = 0;
    for (size_t i = 0; i < queue.size(); ++i) {
      if (queue[i].txn == slot.txn) ++entries;
    }
    GRANULOCK_AUDIT_CHECK_EQ(entries, 1)
        << "txn " << slot.txn << " appears " << entries
        << " times in the queue of granule " << slot.queued_on;
  }
  GRANULOCK_AUDIT_CHECK_EQ(live, index_.size());

  // Queue conservation, the holder mirror and the no-missed-grant
  // property, granule by granule.
  size_t holds_from_granules = 0;
  size_t queued_from_granules = 0;
  for (int64_t granule = 0; granule < num_granules_; ++granule) {
    const GranuleState& state = granules_[static_cast<size_t>(granule)];
    holds_from_granules += state.holders.size();
    queued_from_granules += state.queue.size();
    for (const Holder& holder : state.holders) {
      GRANULOCK_AUDIT_CHECK(holder.mode != LockMode::kNL)
          << "granule " << granule << " holds a kNL entry for txn "
          << holder.txn;
      const uint32_t slot = FindSlot(holder.txn);
      if (slot == kNoSlot) {
        GRANULOCK_AUDIT_CHECK(false)
            << "holder " << holder.txn << " of granule " << granule
            << " is missing from the per-txn index";
        continue;
      }
      const auto& held = slots_[slot].held;
      GRANULOCK_AUDIT_CHECK_EQ(std::count(held.begin(), held.end(), granule),
                               1)
          << "holder " << holder.txn << " of granule " << granule
          << " is not listed once among its slot's held granules";
    }
    for (size_t i = 0; i < state.queue.size(); ++i) {
      const TxnId waiter = state.queue[i].txn;
      const uint32_t slot = FindSlot(waiter);
      GRANULOCK_AUDIT_CHECK(slot != kNoSlot &&
                            slots_[slot].queued_on == granule)
          << "txn " << waiter << " queues on granule " << granule
          << " but its slot disagrees";
    }
    if (!state.queue.empty()) {
      const Waiter& head = state.queue.front();
      GRANULOCK_AUDIT_CHECK(
          !CompatibleWithHolders(state, head.txn, head.mode))
          << "granule " << granule << " queue head txn " << head.txn
          << " is compatible with all holders: a grant was missed";
    }
  }
  GRANULOCK_AUDIT_CHECK_EQ(holds_from_slots, holds_from_granules);
  GRANULOCK_AUDIT_CHECK_EQ(static_cast<size_t>(waiting_count_),
                           queued_from_granules);
  GRANULOCK_AUDIT_CHECK_EQ(queued_slots, queued_from_granules);
}

}  // namespace granulock::lockmgr
