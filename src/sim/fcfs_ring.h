#ifndef GRANULOCK_SIM_FCFS_RING_H_
#define GRANULOCK_SIM_FCFS_RING_H_

#include <cstddef>
#include <memory>
#include <utility>

namespace granulock::sim {

/// The FCFS queue of `LockLane`, `PriorityServer` and the lock wait
/// queues of `lockmgr::WaitQueueLockTable`: a ring over a power-of-two
/// array of default-initialized slots, which `push_back` assigns. It
/// doubles when full and never shrinks, so once a queue has held its
/// longest backlog, pushing, popping and erasing allocate nothing. (A
/// `std::deque` allocates and frees a node every few jobs as its window
/// slides along.)
template <typename T>
class FcfsRing {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }
  /// The `i`th element from the front; `i < size()`.
  const T& operator[](size_t i) const { return slots_[(head_ + i) & mask_]; }

  void push_back(T&& value) {
    if (size_ == capacity_) Grow();
    slots_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  /// Removes the front element; its slot is reset to `T()`.
  void pop_front() {
    slots_[head_] = T();
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  /// Removes the `i`th element from the front, keeping the order of the
  /// rest (those behind it move up one place); `i < size()`.
  void erase(size_t i) {
    for (; i + 1 < size_; ++i) {
      slots_[(head_ + i) & mask_] = std::move(slots_[(head_ + i + 1) & mask_]);
    }
    slots_[(head_ + size_ - 1) & mask_] = T();
    --size_;
  }

 private:
  static constexpr size_t kMinCapacity = 4;

  void Grow() {
    const size_t capacity = capacity_ == 0 ? kMinCapacity : 2 * capacity_;
    auto grown = std::make_unique_for_overwrite<T[]>(capacity);
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & mask_]);
    }
    slots_ = std::move(grown);
    capacity_ = capacity;
    head_ = 0;
    mask_ = capacity - 1;
  }

  std::unique_ptr<T[]> slots_;
  size_t capacity_ = 0;
  size_t head_ = 0;
  size_t size_ = 0;
  size_t mask_ = 0;
};

}  // namespace granulock::sim

#endif  // GRANULOCK_SIM_FCFS_RING_H_
