// The Figure 8(c) what-if analysis: replay each path's direct-path loss
// trace against traditional on-path FEC at several overhead levels and
// compare recovery rates with CR-WAN's measured recovery.
//
// Methodology follows Section 6.2.2: "We divide the probes into 5 packet
// bursts and consider the next burst as the FEC packets" -- i.e. a block of
// 5 data packets is protected by FEC packets whose own delivery fate is
// sampled from the packets that follow the block on the same path, so FEC
// packets are exposed to the same bursts/outages as the data.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "exp/scenario.h"

namespace jqos::exp {

// Fraction of lost packets an on-path FEC scheme with `fec_per_block` coded
// packets per `block` data packets would have recovered on this loss trace.
// `trace[i]` is true when packet i was lost on the direct path.
double fec_recovery_rate(const std::vector<bool>& trace, std::size_t block,
                         std::size_t fec_per_block);

// Converts scenario outcomes to a direct-loss trace.
std::vector<bool> loss_trace(const std::vector<Outcome>& outcomes);

// Percentage increase of CR-WAN's recovery rate over FEC's, capped to
// `cap_percent` when FEC recovers nothing (the paper's log axis tops out at
// 10^4).
double percent_increase(double crwan_rate, double fec_rate, double cap_percent = 1e4);

// Whether the trace contains at least one loss episode FEC at the given
// overhead could not recover (the "90% of paths had at least one episode
// unrecoverable even at 100% overhead" claim).
bool has_fec_unrecoverable_episode(const std::vector<bool>& trace, std::size_t block,
                                   std::size_t fec_per_block);

// One path's full Figure 8(c) what-if evaluation: recovery rate at each
// requested overhead level plus the "FEC-defeated even at the last level"
// flag. Kept together so the multi-path sweep walks each trace once.
struct FecWhatifRow {
  std::vector<double> rates;         // One per (block, fec) overhead level.
  bool last_level_defeated = false;  // has_fec_unrecoverable_episode at back().
};

// Replays every trace against each (block, fec_per_block) overhead level,
// fanned out across JQOS_SIM_THREADS (or hardware_concurrency) workers.
// Rows come back in trace order and are byte-identical for any thread
// count -- traces are independent replays.
std::vector<FecWhatifRow> fec_whatif_sweep(
    const std::vector<std::vector<bool>>& traces,
    const std::vector<std::pair<std::size_t, std::size_t>>& levels);

}  // namespace jqos::exp
