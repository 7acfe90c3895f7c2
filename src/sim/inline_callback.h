#ifndef GRANULOCK_SIM_INLINE_CALLBACK_H_
#define GRANULOCK_SIM_INLINE_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace granulock::sim {

/// A `void()` callable stored in place, built for the event engine's hot
/// path.
///
/// `std::function` heap-allocates for any capture list beyond two words,
/// which made every scheduled event cost a malloc/free pair. The engines'
/// event and completion callbacks capture at most 48 bytes of pointers
/// and numbers (`this` or a few pointers, a node index, a couple of
/// doubles), so the type accepts exactly those: a callable of at most
/// `kInlineSize` bytes that is trivially copyable and trivially
/// destructible. Anything else does not compile, so no callback can
/// allocate or need a destructor.
///
/// Dispatch is one raw function pointer (no vtable). The type itself is
/// trivially copyable: a callback moves from a caller into an event slot,
/// a server's queue or out of either by copying its bytes. A copied-from
/// callback still holds its callable; a default-constructed one is empty.
class InlineCallback {
 public:
  /// Inline capacity: the largest callable the type accepts.
  static constexpr size_t kInlineSize = 48;

  InlineCallback() = default;

  /// Stores `f`. Only a `void()` callable of at most `kInlineSize` bytes
  /// that is trivially copyable and trivially destructible takes part in
  /// overload resolution.
  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, InlineCallback> &&
             std::is_invocable_r_v<void, D&> && sizeof(D) <= kInlineSize &&
             alignof(D) <= alignof(std::max_align_t) &&
             std::is_trivially_copyable_v<D> &&
             std::is_trivially_destructible_v<D>)
  InlineCallback(F&& f) {  // NOLINT(runtime/explicit): drop-in for function
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    invoke_ = [](void* p) { (*std::launder(static_cast<D*>(p)))(); };
  }

  /// True when a callable is stored.
  explicit operator bool() const { return invoke_ != nullptr; }

  /// Invokes the stored callable. Undefined when empty.
  void operator()() { invoke_(storage_); }

 private:
  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  void (*invoke_)(void*) = nullptr;
};

}  // namespace granulock::sim

#endif  // GRANULOCK_SIM_INLINE_CALLBACK_H_
