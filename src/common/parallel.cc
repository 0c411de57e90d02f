#include "common/parallel.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace jqos {

unsigned resolve_sim_threads(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("JQOS_SIM_THREADS")) {
    // Strict parse: the whole string must be a positive integer (an optional
    // leading '+' is tolerated) -- no sign tricks, no trailing junk, not "".
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || v <= 0) {
      // A knob that is set but broken must fail loudly: falling back to 1
      // thread (or to hardware_concurrency) silently turns a typo into a
      // perf regression nobody notices.
      throw std::invalid_argument(
          std::string("JQOS_SIM_THREADS='") + env +
          "' is not a valid setting; expected a positive integer thread count "
          "(e.g. 1, 4, 16). Unset JQOS_SIM_THREADS to use the default.");
    }
    return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void parallel_for_indexed(std::size_t n, unsigned threads,
                          const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (threads > n) threads = static_cast<unsigned>(n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        next.store(n, std::memory_order_relaxed);  // Stop handing out work.
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  try {
    for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  } catch (...) {
    // Thread creation can fail under resource limits (RLIMIT_NPROC, cgroup
    // pid caps). Destroying a joinable std::thread calls std::terminate, so
    // stop handing out work, drain the workers that did start, and let the
    // caller see a catchable exception instead of an abort.
    next.store(n, std::memory_order_relaxed);
    for (auto& th : pool) th.join();
    throw;
  }
  worker();  // The calling thread is worker 0.
  for (auto& th : pool) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace jqos
