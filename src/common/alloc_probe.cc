#include "common/alloc_probe.h"

#include <atomic>
#include <cstdlib>
#include <new>

// The probe must not fight a sanitizer runtime for the heap: ASan's poisoned
// redzones and TSan's deadlock detection both interpose malloc AND operator
// new, and a user replacement would silently bypass their new/delete
// bookkeeping. Compile to a stub there; active() reports which build this is.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define JQOS_ALLOC_PROBE_STUB 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define JQOS_ALLOC_PROBE_STUB 1
#endif
#endif

namespace {

std::atomic<std::uint64_t> g_allocs{0};

#ifndef JQOS_ALLOC_PROBE_STUB
void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}

void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t padded = (n + align - 1) / align * align;
  return std::aligned_alloc(align, padded ? padded : align);
}
#endif

}  // namespace

namespace jqos::alloc_probe {

bool active() {
#ifdef JQOS_ALLOC_PROBE_STUB
  return false;
#else
  return true;
#endif
}

std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }

void reset() { g_allocs.store(0, std::memory_order_relaxed); }

}  // namespace jqos::alloc_probe

#ifndef JQOS_ALLOC_PROBE_STUB

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t align) {
  if (void* p = counted_alloc_aligned(n, static_cast<std::size_t>(align))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t align) {
  if (void* p = counted_alloc_aligned(n, static_cast<std::size_t>(align))) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(n, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t n, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(n, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // JQOS_ALLOC_PROBE_STUB
