// Simulated-time representation.
//
// All latencies in J-QoS are sub-second but spans of interest run for weeks
// (the paper's PlanetLab deployment collected 3-5 weeks of samples per path),
// so we use a 64-bit microsecond tick: enough resolution for 25 ms NACK
// timers and enough range (~292k years) for any experiment.
#pragma once

#include <cstdint>
#include <string>

namespace jqos {

// A point in simulated time, in microseconds since simulation start.
using SimTime = std::int64_t;

// A span of simulated time, in microseconds. Kept as the same underlying
// type as SimTime so arithmetic stays trivial; the distinct alias documents
// intent at API boundaries.
using SimDuration = std::int64_t;

inline constexpr SimTime kSimStart = 0;
inline constexpr SimDuration kNoTimeout = -1;

constexpr SimDuration usec(std::int64_t n) { return n; }
constexpr SimDuration msec(std::int64_t n) { return n * 1000; }
constexpr SimDuration msec_f(double n) { return static_cast<SimDuration>(n * 1000.0); }
constexpr SimDuration sec(std::int64_t n) { return n * 1000 * 1000; }
constexpr SimDuration sec_f(double n) { return static_cast<SimDuration>(n * 1e6); }
constexpr SimDuration minutes(std::int64_t n) { return n * 60 * 1000 * 1000; }

constexpr double to_ms(SimDuration d) { return static_cast<double>(d) / 1000.0; }
constexpr double to_sec(SimDuration d) { return static_cast<double>(d) / 1e6; }

// Human-readable rendering, e.g. "12.345ms" / "3.2s"; used by logs and
// experiment reports.
std::string format_duration(SimDuration d);

}  // namespace jqos
