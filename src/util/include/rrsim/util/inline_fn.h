// Type-erased callable that keeps the hot paths off the heap.
//
// InlineFunction<N> never allocates: the callable lives in a fixed N-byte
// inline buffer and over-sized captures are rejected at compile time.
// This is the DES kernel's callback type (des::Simulation::Callback):
// scheduling an event writes the capture into the event slab slot and
// nothing else, and a cross-partition PDES message carries the same type
// from its mailbox straight into the destination's slab.
//
// It is move-only (moving transfers the erased callable; the source
// becomes empty) and requires nothrow-move-constructible callables so the
// containers holding it can relocate without exception-safety holes.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace rrsim::util {

/// Fixed-capacity, non-allocating move-only callable with signature
/// void(). sizeof(InlineFunction<N>) == N + 2 pointers.
template <std::size_t Capacity>
class InlineFunction {
 public:
  InlineFunction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction>>>
  InlineFunction(F&& f) {  // NOLINT: implicit like std::function
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "callable capture exceeds the inline buffer; shrink the "
                  "capture (capture pointers/indices, not objects) or raise "
                  "the owner's capacity");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "callable over-aligned for the inline buffer");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "callable must be nothrow move constructible");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
    manage_ = [](void* dst, void* src) noexcept {
      Fn* s = static_cast<Fn*>(src);
      if (dst != nullptr) ::new (dst) Fn(std::move(*s));
      s->~Fn();
    };
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  void operator()() { invoke_(buf_); }

  void reset() noexcept {
    if (manage_ != nullptr) {
      manage_(nullptr, buf_);  // destroy in place
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

 private:
  void move_from(InlineFunction& other) noexcept {
    if (other.manage_ != nullptr) {
      other.manage_(buf_, other.buf_);  // move-construct, destroy source
      invoke_ = other.invoke_;
      manage_ = other.manage_;
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
  }

  void (*invoke_)(void*) = nullptr;
  /// dst == nullptr: destroy src in place. Otherwise move-construct the
  /// callable into dst and destroy src (a single "relocate" operation).
  void (*manage_)(void* dst, void* src) noexcept = nullptr;
  alignas(std::max_align_t) unsigned char buf_[Capacity];
};

}  // namespace rrsim::util
