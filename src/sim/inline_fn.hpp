// Small-buffer-optimized, move-only callable: the event queue's callback
// type (InlineFn, a `void()` callable) and the NIC's completion callback
// (InlineFunction<void(net::Completion)>). `std::function` heap-allocates
// every capture over ~16 bytes and drags in copy machinery the simulator
// never uses; InlineFunction stores up to kInlineBytes of captures in
// place and falls back to one heap box only for oversized captures.
// Every callback the per-op and per-packet paths of src/os and src/net
// build captures `{this, slot}`-sized state and stays inline: the
// steady-state allocation tests (net_test's Rdma/Socket SteadyState*)
// pin that. Moving an InlineFunction moves the wrapped callable — no
// refcounts, no atomics, no allocation.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace rdmamon::sim {

template <typename Sig>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  /// Inline capture budget: `[this, slot]`, `[this, cpu, type]` and a
  /// completion callback holding a shared_ptr plus a few scalars all fit.
  static constexpr std::size_t kInlineBytes = 48;

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT: empty callback

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor): sink
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &boxed_ops<Fn>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  /// Destroys the wrapped callable (if any); *this becomes empty.
  void reset() noexcept {
    if (ops_) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// Invokes the wrapped callable. Precondition: *this is non-empty.
  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* src, void* dst) noexcept;  // move + destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* p, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(p)))(
            std::forward<Args>(args)...);
      },
      [](void* src, void* dst) noexcept {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      },
      [](void* p) noexcept { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); }};

  template <typename Fn>
  static constexpr Ops boxed_ops = {
      [](void* p, Args&&... args) -> R {
        return (**reinterpret_cast<Fn**>(p))(std::forward<Args>(args)...);
      },
      [](void* src, void* dst) noexcept {
        *reinterpret_cast<Fn**>(dst) = *reinterpret_cast<Fn**>(src);
      },
      [](void* p) noexcept { delete *reinterpret_cast<Fn**>(p); }};

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

/// The event queue's callback type.
using InlineFn = InlineFunction<void()>;

}  // namespace rdmamon::sim
