#ifndef GRANULOCK_CORE_PARALLEL_RUNNER_H_
#define GRANULOCK_CORE_PARALLEL_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace granulock::core {

/// Resolves a user-requested worker-thread count (the benches' `--threads`
/// flag): 0 means "use the hardware" (`std::thread::hardware_concurrency`,
/// at least 1), a positive value is taken verbatim, and a negative value is
/// an InvalidArgument error.
Result<int> ResolveThreadCount(int64_t requested);

/// A fixed-size worker pool for embarrassingly parallel simulation work —
/// the (sweep point × replication) grid every figure in the paper runs.
///
/// Each task is an independent simulation with its own `Simulator`/`Rng`,
/// so workers share nothing; the pool only hands out indices. Determinism
/// is the caller's contract: task *inputs* (seeds, configs) are computed
/// before the fan-out and *outputs* are merged in index order after the
/// join, so results are bit-identical for any thread count, including 1.
///
/// With `threads == 1` (or a single task) `ParallelFor` runs inline on the
/// calling thread and no worker threads are ever created — that path is
/// byte-for-byte the historical serial execution.
class ParallelRunner {
 public:
  /// Creates a runner with `threads` >= 1 workers. Workers start lazily on
  /// the first multi-task `ParallelFor`.
  explicit ParallelRunner(int threads);
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  int threads() const { return threads_; }

  /// Runs `fn(i)` for every i in [0, n), blocking until all calls return.
  /// Calls may execute on any worker in any order; `fn` must be safe to
  /// call concurrently for distinct indices and should not throw: the
  /// cell-containment layer (`core::RunCell`) catches failures and turns
  /// them into data. As defense in depth, an exception that does escape
  /// `fn` on a worker is captured (first one wins), the batch still drains
  /// to completion, and the exception is rethrown as a std::runtime_error
  /// on the calling thread after the join — never std::terminate.
  /// Reentrant calls (from inside `fn`) are not supported.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn)
      GRANULOCK_EXCLUDES(mu_, error_mu_);

 private:
  void WorkerLoop() GRANULOCK_EXCLUDES(mu_, error_mu_);
  void EnsureWorkersStarted() GRANULOCK_REQUIRES(mu_);
  /// Wraps one `fn(i)` call, capturing the first escaped exception into
  /// `batch_error_`.
  void RunTask(const std::function<void(size_t)>& fn, size_t i)
      GRANULOCK_EXCLUDES(error_mu_);

  const int threads_;

  // Batch hand-off state, guarded by mu_. `epoch_` increments per batch;
  // workers pull task indices from the lock-free `next_` counter.
  granulock::Mutex mu_;
  granulock::CondVar work_cv_;
  granulock::CondVar done_cv_;
  std::vector<std::thread> workers_ GRANULOCK_GUARDED_BY(mu_);
  const std::function<void(size_t)>* fn_ GRANULOCK_GUARDED_BY(mu_) = nullptr;
  size_t n_ GRANULOCK_GUARDED_BY(mu_) = 0;
  std::atomic<size_t> next_{0};
  uint64_t epoch_ GRANULOCK_GUARDED_BY(mu_) = 0;
  int workers_done_ GRANULOCK_GUARDED_BY(mu_) = 0;
  bool stop_ GRANULOCK_GUARDED_BY(mu_) = false;

  // First exception that escaped `fn` in the current batch. error_mu_ is
  // never held together with mu_ today; the ACQUIRED_AFTER declares the
  // one legal nesting (mu_ before error_mu_) should that ever change.
  granulock::Mutex error_mu_ GRANULOCK_ACQUIRED_AFTER(mu_);
  bool batch_failed_ GRANULOCK_GUARDED_BY(error_mu_) = false;
  std::string batch_error_ GRANULOCK_GUARDED_BY(error_mu_);
};

}  // namespace granulock::core

#endif  // GRANULOCK_CORE_PARALLEL_RUNNER_H_
