// Runtime-dispatched backends for the fused GF(256) Reed-Solomon row kernel.
//
// gf_rs_row (gf256.h) is the one kernel every encode and every decode's
// payload rebuild runs. It is implemented two ways and selected once at
// startup:
//
//   kScalar  portable 256-entry table walk (always available)
//   kAvx2    split-nibble VPSHUFB, 32 bytes per step
//
// The split-nibble technique (zfec / gf-complete / ISA-L lineage — zfec is
// the library the paper's prototype used): for a fixed coefficient c, write
// each source byte as x = hi·16 + lo. Multiplication by c is linear over
// GF(2), so c·x = c·(hi·16) ^ c·(lo). Precomputing two 16-entry tables per
// coefficient — products of c with every low nibble and with every high
// nibble — turns one field multiply per byte into two byte shuffles and an
// XOR, applied to 32 bytes per instruction.
//
// Dispatch picks AVX2 if the CPU reports it, else scalar.
// gf_set_backend(GfBackend::kScalar) overrides the choice; the differential
// tests and the per-backend bench sweep use it to pin each backend in turn.
//
// gf_set_backend is not synchronized against concurrent kernel calls; switch
// backends only while no encode/decode is in flight (tests and bench setup).
#pragma once

#include <vector>

namespace jqos::fec {

enum class GfBackend {
  kScalar,
  kAvx2,
};

// True when the backend is both compiled in (x86 build with -mavx2) and
// supported by the CPU we are running on. kScalar is always available.
bool gf_backend_available(GfBackend b);

// Every backend available on this machine, slowest first (so index 0 is
// always kScalar). The single source of truth for tests and bench sweeps
// that iterate backends — a newly added backend joins their coverage
// automatically.
std::vector<GfBackend> gf_available_backends();

// The backend the dispatcher picks on its own: the fastest available one.
// Allocates nothing.
GfBackend gf_best_backend();

// Forces the kernel onto `b`. Returns false (and leaves the current choice
// untouched) when `b` is not available on this machine.
bool gf_set_backend(GfBackend b);

// Currently active backend.
GfBackend gf_backend();

// Human-readable name of a backend: "scalar", "avx2".
const char* gf_backend_name(GfBackend b);

// Name of the currently active backend.
const char* gf_backend_name();

}  // namespace jqos::fec
