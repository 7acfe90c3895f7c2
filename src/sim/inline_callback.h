#ifndef GRANULOCK_SIM_INLINE_CALLBACK_H_
#define GRANULOCK_SIM_INLINE_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace granulock::sim {

/// A move-only `void()` callable with small-buffer storage, built for the
/// event engine's hot path.
///
/// `std::function` heap-allocates for any capture list beyond two words,
/// which made every scheduled event cost a malloc/free pair. The engines'
/// event and completion callbacks capture at most 48 bytes (`this` or a
/// few pointers, a node index, a couple of doubles), so a 48-byte inline
/// buffer stores each of them with zero allocations; larger callables
/// transparently fall back to the heap rather than failing to compile,
/// keeping the type a drop-in `Simulator::Callback`.
///
/// Dispatch is one raw function pointer to invoke and, for callables
/// that need one, a second to move or destroy (no vtable). A callable
/// that is trivially copyable and trivially destructible — every engine,
/// server and lane callback, which capture only pointers and numbers
/// (`kCopiesBytes`) — has no move/destroy function: moving it copies the
/// buffer's bytes and destroying it does nothing, so a callback moves
/// from a caller into an event slot, a server's queue or out of either
/// without an indirect call.
class InlineCallback {
 public:
  /// Inline capacity. Callables up to this size (and alignof <=
  /// max_align_t) are stored in place; bigger ones go to the heap.
  static constexpr size_t kInlineSize = 48;

  /// True when a callable of type `F` is stored in place and moved by
  /// copying its bytes, with no move/destroy call.
  template <typename F>
  static constexpr bool kCopiesBytes =
      sizeof(F) <= kInlineSize && alignof(F) <= alignof(std::max_align_t) &&
      std::is_trivially_copyable_v<F> && std::is_trivially_destructible_v<F>;

  InlineCallback() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<
                std::decay_t<F>, InlineCallback>>>
  InlineCallback(F&& f) {  // NOLINT(runtime/explicit): drop-in for function
    using Decayed = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Decayed&>,
                  "InlineCallback requires a void() callable");
    if constexpr (sizeof(Decayed) <= kInlineSize &&
                  alignof(Decayed) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Decayed>) {
      ::new (static_cast<void*>(storage_)) Decayed(std::forward<F>(f));
      invoke_ = [](void* p) { (*std::launder(static_cast<Decayed*>(p)))(); };
      if constexpr (!kCopiesBytes<Decayed>) {
        move_destroy_ = [](void* dst, void* src) {
          Decayed* s = std::launder(static_cast<Decayed*>(src));
          if (dst != nullptr) ::new (dst) Decayed(std::move(*s));
          s->~Decayed();
        };
      }
    } else {
      ::new (static_cast<void*>(storage_))
          Decayed*(new Decayed(std::forward<F>(f)));
      invoke_ = [](void* p) {
        (**std::launder(static_cast<Decayed**>(p)))();
      };
      move_destroy_ = [](void* dst, void* src) {
        Decayed** s = std::launder(static_cast<Decayed**>(src));
        if (dst != nullptr) {
          ::new (dst) Decayed*(*s);  // ownership transfers with the pointer
        } else {
          delete *s;
        }
      };
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { MoveFrom(other); }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { Reset(); }

  /// True when a callable is stored.
  explicit operator bool() const { return invoke_ != nullptr; }

  /// Invokes the stored callable. Undefined when empty.
  void operator()() { invoke_(storage_); }

  /// Destroys the stored callable (if any), leaving the object empty.
  void Reset() {
    if (move_destroy_ != nullptr) {
      move_destroy_(nullptr, storage_);
      move_destroy_ = nullptr;
    }
    invoke_ = nullptr;
  }

 private:
  void MoveFrom(InlineCallback& other) noexcept {
    if (other.invoke_ == nullptr) return;
    if (other.move_destroy_ != nullptr) {
      other.move_destroy_(storage_, other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, kInlineSize);
    }
    invoke_ = other.invoke_;
    move_destroy_ = other.move_destroy_;
    other.invoke_ = nullptr;
    other.move_destroy_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  void (*invoke_)(void*) = nullptr;
  /// Null for a byte-copied callable. Otherwise, with a non-null `dst`:
  /// move-construct the callable into `dst` and destroy the source; with
  /// null `dst`: destroy only.
  void (*move_destroy_)(void* dst, void* src) = nullptr;
};

}  // namespace granulock::sim

#endif  // GRANULOCK_SIM_INLINE_CALLBACK_H_
