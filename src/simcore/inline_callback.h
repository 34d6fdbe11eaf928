// Small-buffer-optimized, move-only callables for the event hot path.
//
// Every scheduled event used to carry a std::function<void()>, which heap
// allocates for any capture larger than the library's tiny inline buffer
// (typically 16 bytes on libstdc++). The event core schedules millions of
// callbacks per simulated second, so those allocations dominated the
// schedule/fire path. InlineFunction stores captures up to kInlineBytes
// (88 bytes — enough for every scheduling lambda in the tree, e.g. the
// disk-service completion capturing a full DiskRequest) directly inside
// the object and falls back to the heap only for oversized captures.
//
// InlineFunction<Sig> generalizes the original void() InlineCallback to
// arbitrary signatures so the device completion paths (Switch delivery,
// Node compute) can carry their callbacks allocation-free too; the serving
// layer's per-op completion chains are the heavy consumer.
//
// Differences from std::function, all deliberate:
//   * move-only: callbacks fire once and never need copying; this also
//     admits move-only captures (std::unique_ptr, etc.);
//   * no empty-call exception: invoking a null callback is a programming
//     error (assert in debug builds);
//   * Emplace() builds a callable directly in an existing empty object, so
//     the event queue constructs each event's callback once, in the slot
//     it fires from, and never moves it;
//   * trivially-copyable captures relocate with memcpy, so the moves that
//     remain (device queues carrying completion callbacks) never run user
//     code.
#ifndef SRC_SIMCORE_INLINE_CALLBACK_H_
#define SRC_SIMCORE_INLINE_CALLBACK_H_

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace fst {

template <typename Sig>
class InlineFunction;  // primary template left undefined

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  static constexpr std::size_t kInlineBytes = 88;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  // Whether a callable of type F is stored inline (no allocation).
  template <typename F>
  static constexpr bool StoresInline() {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineBytes && alignof(D) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<D>;
  }

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  R operator()(Args... args) {
    assert(ops_ != nullptr && "invoking a null InlineFunction");
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return ops_ != nullptr; }

  // Builds `f` in place in this empty object; an InlineFunction argument
  // is moved in instead. If constructing the capture throws, the object
  // stays empty.
  template <typename F>
  void Emplace(F&& f) {
    using D = std::decay_t<F>;
    assert(ops_ == nullptr && "Emplace into a non-empty InlineFunction");
    if constexpr (std::is_same_v<D, InlineFunction>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "InlineFunction is move-only: pass it as an rvalue");
      MoveFrom(f);
    } else if constexpr (StoresInline<F>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  // Destroys the stored callable, leaving this object empty.
  void Reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) {
        ops_->destroy(buf_);
      }
      ops_ = nullptr;
    }
  }

  // True if the stored callable lives on the heap (oversized capture).
  bool heap_allocated() const { return ops_ != nullptr && ops_->on_heap; }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    // Move-construct *src into dst then destroy *src. Null means the
    // payload is trivially relocatable: memcpy `size` bytes instead.
    void (*relocate)(void* src, void* dst);
    void (*destroy)(void*);  // null => trivially destructible
    // Payload size: trivial relocation copies only these bytes, not the
    // whole inline buffer — most captures are a fraction of kInlineBytes.
    std::size_t size;
    bool on_heap;
  };

  template <typename F>
  static F* Payload(void* buf) {
    return std::launder(reinterpret_cast<F*>(buf));
  }

  template <typename F>
  static constexpr Ops kInlineOps = {
      [](void* buf, Args&&... args) -> R {
        return (*Payload<F>(buf))(std::forward<Args>(args)...);
      },
      std::is_trivially_copyable_v<F>
          ? nullptr
          : +[](void* src, void* dst) {
              F* s = Payload<F>(src);
              ::new (dst) F(std::move(*s));
              s->~F();
            },
      std::is_trivially_destructible_v<F>
          ? nullptr
          : +[](void* buf) { Payload<F>(buf)->~F(); },
      sizeof(F),
      false,
  };

  template <typename F>
  static constexpr Ops kHeapOps = {
      [](void* buf, Args&&... args) -> R {
        return (**Payload<F*>(buf))(std::forward<Args>(args)...);
      },
      nullptr,  // the owning pointer relocates by memcpy
      [](void* buf) { delete *Payload<F*>(buf); },
      sizeof(F*),
      true,
  };

  void MoveFrom(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate == nullptr) {
        std::memcpy(buf_, other.buf_, ops_->size);
      } else {
        ops_->relocate(other.buf_, buf_);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

// The event core's callback type — the original name, now an alias.
using InlineCallback = InlineFunction<void()>;

static_assert(InlineCallback::kInlineBytes >= 48,
              "event callbacks must fit at least 48 bytes of capture inline");

}  // namespace fst

#endif  // SRC_SIMCORE_INLINE_CALLBACK_H_
