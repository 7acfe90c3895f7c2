#ifndef GRANULOCK_LOCKMGR_TXN_ID_MAP_H_
#define GRANULOCK_LOCKMGR_TXN_ID_MAP_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "lockmgr/lock_table.h"
#include "util/logging.h"

namespace granulock::lockmgr {

/// A map from transaction ids to small values (a slot number, a pointer)
/// that allocates nothing once it has held its largest population. Open
/// addressing with linear probing in a power-of-two table at most half
/// full; erasure shifts later cells back, so there are no tombstones.
/// `kAbsent` is what `Find` returns for an id with no entry; it is never
/// stored.
template <typename Value, Value kAbsent = Value{}>
class TxnIdMap {
 public:
  TxnIdMap() : cells_(size_t{1} << kInitialBits) {}

  /// The value of `txn`, or `kAbsent`.
  Value Find(TxnId txn) const {
    const size_t mask = cells_.size() - 1;
    for (size_t i = Home(txn);; i = (i + 1) & mask) {
      const Cell& cell = cells_[i];
      if (cell.value == kAbsent) return kAbsent;
      if (cell.txn == txn) return cell.value;
    }
  }

  /// Adds `txn`, which has no entry, with `value` (not `kAbsent`).
  void Insert(TxnId txn, Value value) {
    if (2 * (size_ + 1) > cells_.size()) Grow();
    Place(Cell{txn, value});
    ++size_;
  }

  /// Removes the entry of `txn`, which must have one.
  void Erase(TxnId txn) {
    const size_t mask = cells_.size() - 1;
    size_t hole = Home(txn);
    while (cells_[hole].value == kAbsent || cells_[hole].txn != txn) {
      GRANULOCK_CHECK(cells_[hole].value != kAbsent)
          << "txn " << txn << " has no entry";
      hole = (hole + 1) & mask;
    }
    // Backward-shift deletion: each later cell of the probe run moves into
    // the hole unless the hole lies before its home cell.
    for (size_t i = (hole + 1) & mask; cells_[i].value != kAbsent;
         i = (i + 1) & mask) {
      if (((i - Home(cells_[i].txn)) & mask) >= ((i - hole) & mask)) {
        cells_[hole] = cells_[i];
        hole = i;
      }
    }
    cells_[hole] = Cell{};
    --size_;
  }

  size_t size() const { return size_; }

  /// Calls `fn(txn, value)` for every entry, in no particular order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Cell& cell : cells_) {
      if (cell.value != kAbsent) fn(cell.txn, cell.value);
    }
  }

 private:
  static constexpr int kInitialBits = 4;

  struct Cell {
    TxnId txn = 0;
    Value value = kAbsent;
  };

  size_t Home(TxnId txn) const {
    // Fibonacci hashing: the engines number transactions consecutively, and
    // the multiply spreads consecutive ids over the high bits.
    return static_cast<size_t>((txn * 0x9e3779b97f4a7c15ull) >> (64 - bits_));
  }

  void Place(Cell cell) {
    const size_t mask = cells_.size() - 1;
    size_t i = Home(cell.txn);
    while (cells_[i].value != kAbsent) i = (i + 1) & mask;
    cells_[i] = cell;
  }

  void Grow() {
    std::vector<Cell> old = std::move(cells_);
    ++bits_;
    cells_.assign(size_t{1} << bits_, Cell{});
    for (const Cell& cell : old) {
      if (cell.value != kAbsent) Place(cell);
    }
  }

  std::vector<Cell> cells_;
  size_t size_ = 0;
  int bits_ = kInitialBits;
};

}  // namespace granulock::lockmgr

#endif  // GRANULOCK_LOCKMGR_TXN_ID_MAP_H_
