// Backend selection for the GF(256) row kernel: builds the split-nibble
// tables, probes CPU support once, and hands gf256.cc the row kernel's
// function pointer. This TU contains no ISA-specific code itself — the AVX2
// kernel lives in its own TU so only that one is built with -mavx2.
#include "fec/gf256_simd.h"

#include <atomic>

#include "fec/gf256_simd_impl.h"

namespace jqos::fec {
namespace detail {
namespace {

NibbleTables build_nibble_tables() {
  NibbleTables t;
  for (int c = 0; c < 256; ++c) {
    for (int x = 0; x < 16; ++x) {
      t.lo[c][x] = gf_mul(static_cast<Gf>(c), static_cast<Gf>(x));
      t.hi[c][x] = gf_mul(static_cast<Gf>(c), static_cast<Gf>(x << 4));
    }
  }
  return t;
}

bool cpu_supports_avx2() {
#if JQOS_GF_X86 && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

struct Dispatch {
  GfBackend backend;
  RowKernelFn rs_row;
};

// One immutable Dispatch per backend. gf_set_backend() swings an atomic
// pointer between these rather than mutating a shared struct in place, so a
// backend switch racing concurrent encoders (the sharded scenario runner
// runs one shard per thread) is data-race-free: every reader sees one
// coherent (backend, kernel) pair, old or new, never a torn mix.
const Dispatch& dispatch_entry(GfBackend b) {
  static const Dispatch kAvx2{GfBackend::kAvx2, &gf_rs_row_avx2};
  static const Dispatch kScalar{GfBackend::kScalar, &gf_rs_row_scalar};
  return b == GfBackend::kAvx2 ? kAvx2 : kScalar;
}

std::atomic<const Dispatch*>& active_dispatch() {
  // Thread-safe lazy init: the first caller probes the CPU; later callers
  // (any thread) do a plain acquire load.
  static std::atomic<const Dispatch*> d{&dispatch_entry(gf_best_backend())};
  return d;
}

const Dispatch& dispatch() {
  return *active_dispatch().load(std::memory_order_acquire);
}

}  // namespace

const NibbleTables& nibble_tables() {
  static const NibbleTables t = build_nibble_tables();
  return t;
}

RowKernelFn gf_rs_row_kernel() { return dispatch().rs_row; }

}  // namespace detail

bool gf_backend_available(GfBackend b) {
  switch (b) {
    case GfBackend::kScalar:
      return true;
    case GfBackend::kAvx2:
      return detail::gf_avx2_compiled() && detail::cpu_supports_avx2();
  }
  return false;
}

std::vector<GfBackend> gf_available_backends() {
  std::vector<GfBackend> out;
  for (GfBackend b : {GfBackend::kScalar, GfBackend::kAvx2}) {
    if (gf_backend_available(b)) out.push_back(b);
  }
  return out;
}

GfBackend gf_best_backend() {
  return gf_backend_available(GfBackend::kAvx2) ? GfBackend::kAvx2 : GfBackend::kScalar;
}

bool gf_set_backend(GfBackend b) {
  if (!gf_backend_available(b)) return false;
  detail::active_dispatch().store(&detail::dispatch_entry(b), std::memory_order_release);
  return true;
}

GfBackend gf_backend() { return detail::dispatch().backend; }

const char* gf_backend_name(GfBackend b) {
  switch (b) {
    case GfBackend::kScalar:
      return "scalar";
    case GfBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const char* gf_backend_name() { return gf_backend_name(gf_backend()); }

}  // namespace jqos::fec
