// Global-allocator instrumentation for the zero-alloc steady-state guard.
//
// Linking the jqos_alloc_probe library into a binary replaces global
// operator new with a counting wrapper over malloc (and operator delete with
// its matching free), so a test or bench can assert "this window performed
// N global-allocator hits" -- the enforcement arm of the object-pool
// subsystem (docs/MEMORY.md). The replacement is process-wide but
// build-local: only binaries that link the probe pay for it.
//
// Under ASan/TSan the wrappers compile to nothing (the sanitizer's own
// new/delete interceptors must keep ownership of the heap); active() tells
// callers whether counts are real so assertions can degrade to skips.
#pragma once

#include <cstdint>

namespace jqos::alloc_probe {

// True when the counting replacements are live in this binary.
bool active();

// Cumulative process-wide allocation count since start (or the last
// reset()).
std::uint64_t allocations();

void reset();

}  // namespace jqos::alloc_probe
