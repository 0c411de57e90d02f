// Small-buffer-optimized callback storage for simulator events.
//
// The event queue fires tens of millions of callbacks per experiment, and
// std::function heap-allocates any closure bigger than two pointers — which
// includes the common link-delivery closure. EventFn is a move-only
// std::function<void()> replacement tuned for the dispatch loop:
//
//   - 32 bytes of inline storage: every hot-path closure in the tree fits
//     (link delivery captures this + PacketPtr = 24 B, timers capture
//     this + a key or record pointer = 16-24 B), so pushing an event never
//     allocates.
//     Larger or not-nothrow-movable callables fall back to one heap
//     allocation — correct for arbitrary callables, hit only on cold paths.
//   - a trivial fast path: closures that are trivially copyable and
//     trivially destructible (raw pointers + ints — the overwhelming
//     majority) relocate by plain memcpy and destroy as a no-op, with no
//     indirect call. Only invocation pays an indirect call, and only
//     closures owning real state (e.g. a PacketPtr) carry an ops table.
//
// sizeof(EventFn) == 48 so the event slab's Slot (EventFn + sequence +
// freelist link) fits one 64-byte cache line.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace jqos::netsim {

class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 32;

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (kFitsInline<D>) {
      ::new (storage()) D(std::forward<F>(f));
      invoke_ = &inline_invoke<D>;
      if constexpr (!kTrivial<D>) ops_ = &kInlineOps<D>;
    } else {
      ::new (storage()) D*(new D(std::forward<F>(f)));
      invoke_ = &heap_invoke<D>;
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() {
    assert(invoke_ != nullptr && "invoking an empty EventFn");
    invoke_(storage());
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  void reset() noexcept {
    if (invoke_ != nullptr) {
      if (ops_ != nullptr) ops_->destroy(storage());
      invoke_ = nullptr;
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    // Move-constructs the callable into dst and destroys the one in src.
    void (*relocate)(void* src, void* dst);
    void (*destroy)(void* obj);
  };

  template <typename D>
  static constexpr bool kFitsInline = sizeof(D) <= kInlineBytes &&
                                      alignof(D) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<D>;
  template <typename D>
  static constexpr bool kTrivial =
      std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>;

  template <typename D>
  static void inline_invoke(void* obj) {
    (*static_cast<D*>(obj))();
  }
  template <typename D>
  static void inline_relocate(void* src, void* dst) {
    D* p = static_cast<D*>(src);
    ::new (dst) D(std::move(*p));
    p->~D();
  }
  template <typename D>
  static void inline_destroy(void* obj) {
    static_cast<D*>(obj)->~D();
  }

  template <typename D>
  static void heap_invoke(void* obj) {
    (**static_cast<D**>(obj))();
  }
  static void heap_relocate(void* src, void* dst) {
    std::memcpy(dst, src, sizeof(void*));  // Ownership of the D* moves over.
  }
  template <typename D>
  static void heap_destroy(void* obj) {
    delete *static_cast<D**>(obj);
  }

  template <typename D>
  static constexpr Ops kInlineOps{&inline_relocate<D>, &inline_destroy<D>};
  template <typename D>
  static constexpr Ops kHeapOps{&heap_relocate, &heap_destroy<D>};

  void* storage() noexcept { return buf_; }

  void move_from(EventFn& other) noexcept {
    if (other.invoke_ != nullptr) {
      if (other.ops_ != nullptr) {
        other.ops_->relocate(other.storage(), storage());
      } else {
        // Trivially relocatable: one fixed-size copy, no indirect call.
        std::memcpy(buf_, other.buf_, kInlineBytes);
      }
      invoke_ = other.invoke_;
      ops_ = other.ops_;
      other.invoke_ = nullptr;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;  // null => empty
  const Ops* ops_ = nullptr;         // null => memcpy-relocate, no-op destroy
};

static_assert(sizeof(EventFn) == 48);

}  // namespace jqos::netsim
