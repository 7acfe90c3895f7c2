#ifndef GRANULOCK_UTIL_MUTEX_H_
#define GRANULOCK_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace granulock {

/// Annotated wrapper over `std::mutex`.
///
/// `std::mutex` itself carries no capability attribute on libstdc++, so
/// Clang's `-Wthread-safety` cannot see it being locked; every mutex in
/// the concurrent subsystems is a `granulock::Mutex` instead, which makes
/// `GRANULOCK_GUARDED_BY(mu_)` members checkable. The wrapper is
/// header-only and compiles to the exact `std::mutex` calls, so the
/// migration is free at runtime.
///
/// Locking idioms, in order of preference:
///   * `MutexLock lock(&mu_);` — RAII, scoped-capability checked;
///   * explicit `mu_.Lock()` / `mu_.Unlock()` — for lifetimes the RAII
///     scope cannot express (e.g. dropping the lock across batched I/O
///     in `CheckpointJournal::Append`); Clang verifies the balance.
class GRANULOCK_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() GRANULOCK_ACQUIRE() { mu_.lock(); }
  void Unlock() GRANULOCK_RELEASE() { mu_.unlock(); }
  bool TryLock() GRANULOCK_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Documents (to the analysis, not the runtime) that the caller holds
  /// this mutex when the fact cannot be proven structurally.
  void AssertHeld() const GRANULOCK_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock for `granulock::Mutex`, visible to the capability analysis
/// as a scoped acquire/release pair.
class GRANULOCK_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) GRANULOCK_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~MutexLock() GRANULOCK_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable paired with `granulock::Mutex`.
///
/// `Wait` atomically releases the mutex while blocked and re-acquires it
/// before returning — which is exactly why a condition-variable wait is
/// the one blocking call that is legal with a mutex "held": the lock is
/// not actually held while sleeping.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified. The caller must hold `*mu`; on return it
  /// holds it again.
  void Wait(Mutex* mu) GRANULOCK_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu->mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // ownership stays with the caller's lock
  }

  /// Blocks until `pred()` holds (re-checked on every wakeup).
  template <typename Pred>
  void Wait(Mutex* mu, Pred pred) GRANULOCK_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu->mu_, std::adopt_lock);
    cv_.wait(native, pred);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace granulock

#endif  // GRANULOCK_UTIL_MUTEX_H_
