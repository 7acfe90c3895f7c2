#ifndef GRANULOCK_UTIL_THREAD_ANNOTATIONS_H_
#define GRANULOCK_UTIL_THREAD_ANNOTATIONS_H_

/// Clang thread-safety capability annotations, compiled to nothing on
/// every other compiler. The Clang CI jobs build with
/// `-Wthread-safety -Werror`, which turns these declarations into a
/// static wall: a member declared `GRANULOCK_GUARDED_BY(mu_)` cannot be
/// touched without `mu_` held, a function declared
/// `GRANULOCK_REQUIRES(mu_)` cannot be called without it, and a scope
/// that forgets to release fails the build instead of deadlocking a run.
///
/// `GRANULOCK_ACQUIRED_BEFORE/AFTER` only document the intended nesting:
/// `-Wthread-safety` does not check lock order (`-Wthread-safety-beta`
/// would, and no build enables it), and no other tool does either (see
/// docs/STATIC_ANALYSIS.md).
///
/// The macro set mirrors the capability spelling of the Clang docs and
/// abseil's thread_annotations.h; the annotated `Mutex` / `MutexLock` /
/// `CondVar` wrappers that make `std::mutex` visible to the analysis
/// live in util/mutex.h.

#if defined(__clang__) && (!defined(SWIG))
#define GRANULOCK_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define GRANULOCK_THREAD_ANNOTATION_(x)  // no-op off Clang
#endif

/// Declares a data member readable/writable only with `x` held.
#define GRANULOCK_GUARDED_BY(x) GRANULOCK_THREAD_ANNOTATION_(guarded_by(x))

/// Declares a pointer member whose *pointee* is protected by `x`.
#define GRANULOCK_PT_GUARDED_BY(x) \
  GRANULOCK_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Declares that callers must hold the listed capabilities (exclusively).
#define GRANULOCK_REQUIRES(...) \
  GRANULOCK_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Declares that callers must hold the listed capabilities at least shared.
#define GRANULOCK_REQUIRES_SHARED(...) \
  GRANULOCK_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Declares that the function acquires the listed capabilities.
#define GRANULOCK_ACQUIRE(...) \
  GRANULOCK_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Declares that the function releases the listed capabilities.
#define GRANULOCK_RELEASE(...) \
  GRANULOCK_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Declares that the function tries to acquire, returning `result` on
/// success: `bool TryLock() GRANULOCK_TRY_ACQUIRE(true)`.
#define GRANULOCK_TRY_ACQUIRE(...) \
  GRANULOCK_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Declares that callers must NOT hold the listed capabilities (the
/// anti-deadlock annotation: a function that acquires `mu_` internally
/// excludes it).
#define GRANULOCK_EXCLUDES(...) \
  GRANULOCK_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Global lock-ordering declarations on the mutex member itself;
/// documentation only, see the header comment.
#define GRANULOCK_ACQUIRED_BEFORE(...) \
  GRANULOCK_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define GRANULOCK_ACQUIRED_AFTER(...) \
  GRANULOCK_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// Marks a type as a capability ("mutex") / a scoped RAII capability.
#define GRANULOCK_CAPABILITY(x) GRANULOCK_THREAD_ANNOTATION_(capability(x))
#define GRANULOCK_SCOPED_CAPABILITY \
  GRANULOCK_THREAD_ANNOTATION_(scoped_lockable)

/// Declares that the function returns a reference to the capability `x`.
#define GRANULOCK_RETURN_CAPABILITY(x) \
  GRANULOCK_THREAD_ANNOTATION_(lock_returned(x))

/// Asserts (without acquiring) that the calling thread holds `x`.
#define GRANULOCK_ASSERT_CAPABILITY(x) \
  GRANULOCK_THREAD_ANNOTATION_(assert_capability(x))

/// Escape hatch: disables the analysis for one function. Every use needs
/// a comment justifying why the analysis cannot see the invariant.
#define GRANULOCK_NO_THREAD_SAFETY_ANALYSIS \
  GRANULOCK_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // GRANULOCK_UTIL_THREAD_ANNOTATIONS_H_
