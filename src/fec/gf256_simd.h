// Runtime-dispatched SIMD backends for the GF(256) buffer kernels.
//
// The hot kernels (gf_addmul / gf_mul_buf in gf256.h) are implemented three
// ways and selected once at startup:
//
//   kScalar  portable 256-entry table walk (always available)
//   kSsse3   split-nibble PSHUFB, 16 bytes per step
//   kAvx2    split-nibble VPSHUFB, 32 bytes per step
//
// The split-nibble technique (zfec / gf-complete / ISA-L lineage — zfec is
// the library the paper's prototype used): for a fixed coefficient c, write
// each source byte as x = hi·16 + lo. Multiplication by c is linear over
// GF(2), so c·x = c·(hi·16) ^ c·(lo). Precomputing two 16-entry tables per
// coefficient — products of c with every low nibble and with every high
// nibble — turns one field multiply per byte into two byte shuffles and an
// XOR, applied to 16 (SSSE3) or 32 (AVX2) bytes per instruction.
//
// Dispatch order is best-first: AVX2 if the CPU reports it, else SSSE3, else
// scalar. gf_set_backend(GfBackend::kScalar) overrides the choice; the
// differential tests and the per-backend bench sweeps use it to pin each
// backend in turn.
//
// gf_set_backend is not synchronized against concurrent kernel calls; switch
// backends only while no encode/decode is in flight (tests and bench setup).
#pragma once

#include <vector>

namespace jqos::fec {

enum class GfBackend {
  kScalar,
  kSsse3,
  kAvx2,
};

// True when the backend is both compiled in (x86 build with the matching
// ISA flags) and supported by the CPU we are running on. kScalar is always
// available.
bool gf_backend_available(GfBackend b);

// Every backend available on this machine, slowest first (so index 0 is
// always kScalar). The single source of truth for tests and bench sweeps
// that iterate backends — a newly added backend joins their coverage
// automatically.
std::vector<GfBackend> gf_available_backends();

// The backend the dispatcher picks on its own: the fastest available one.
GfBackend gf_best_backend();

// Forces the kernels onto `b`. Returns false (and leaves the current choice
// untouched) when `b` is not available on this machine.
bool gf_set_backend(GfBackend b);

// Currently active backend.
GfBackend gf_backend();

// Human-readable name of a backend: "scalar", "ssse3", "avx2".
const char* gf_backend_name(GfBackend b);

// Name of the currently active backend.
const char* gf_backend_name();

}  // namespace jqos::fec
