#ifndef GRANULOCK_CORE_TXN_POOL_H_
#define GRANULOCK_CORE_TXN_POOL_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace granulock::core {

/// Owns an engine's live transactions and recycles finished ones: a closed
/// system churns through one short-lived transaction per completion, and
/// recycling keeps their vectors' capacity instead of reallocating it.
/// `Txn::Reset()` must return a transaction to its freshly-constructed
/// state, so pooled reuse behaves exactly like a new `Txn`.
template <typename Txn>
class TxnPool {
 public:
  void Reserve(size_t n) {
    live_.reserve(n);
    free_.reserve(n);
  }

  /// A transaction in its freshly-constructed state: a recycled one when
  /// available, else a new `Txn`.
  Txn* Acquire() {
    std::unique_ptr<Txn> owned;
    if (!free_.empty()) {
      owned = std::move(free_.back());
      free_.pop_back();
    } else {
      owned = std::make_unique<Txn>();
    }
    Txn* txn = owned.get();
    live_.push_back(std::move(owned));
    return txn;
  }

  /// Resets `txn` (which must be live) and keeps it for reuse.
  void Release(Txn* txn) {
    auto it = std::find_if(
        live_.begin(), live_.end(),
        [txn](const std::unique_ptr<Txn>& p) { return p.get() == txn; });
    GRANULOCK_CHECK(it != live_.end());
    (*it)->Reset();
    free_.push_back(std::move(*it));
    // Swap-erase: the order of ownership storage is irrelevant.
    *it = std::move(live_.back());
    live_.pop_back();
  }

  /// Live (acquired, not yet released) transactions.
  size_t live() const { return live_.size(); }

 private:
  std::vector<std::unique_ptr<Txn>> live_;
  std::vector<std::unique_ptr<Txn>> free_;
};

}  // namespace granulock::core

#endif  // GRANULOCK_CORE_TXN_POOL_H_
