#include "exp/fec_whatif.h"

#include <algorithm>

#include "common/parallel.h"

namespace jqos::exp {

std::vector<bool> loss_trace(const std::vector<Outcome>& outcomes) {
  std::vector<bool> trace;
  trace.reserve(outcomes.size());
  for (Outcome o : outcomes) {
    if (o == Outcome::kPending) continue;  // Never observed (end of run).
    trace.push_back(o != Outcome::kDirect);
  }
  return trace;
}

namespace {

// Evaluates one block: data packets [start, start+block), FEC packets'
// fates sampled from the packets immediately after the block (wrapping
// traces shorter than needed are truncated by the caller's loop bounds).
struct BlockResult {
  std::size_t data_lost = 0;
  std::size_t fec_survived = 0;
  bool recoverable(std::size_t) const { return data_lost <= fec_survived; }
};

BlockResult eval_block(const std::vector<bool>& trace, std::size_t start, std::size_t block,
                       std::size_t fec_per_block) {
  BlockResult r;
  for (std::size_t i = start; i < start + block && i < trace.size(); ++i) {
    if (trace[i]) ++r.data_lost;
  }
  // FEC packets ride right behind the block on the same path.
  for (std::size_t i = start + block; i < start + block + fec_per_block; ++i) {
    const bool lost = i < trace.size() ? trace[i] : false;
    if (!lost) ++r.fec_survived;
  }
  return r;
}

}  // namespace

double fec_recovery_rate(const std::vector<bool>& trace, std::size_t block,
                         std::size_t fec_per_block) {
  std::size_t lost_total = 0;
  std::size_t recovered_total = 0;
  for (std::size_t start = 0; start + 1 <= trace.size(); start += block) {
    const BlockResult r = eval_block(trace, start, block, fec_per_block);
    lost_total += r.data_lost;
    // An MDS code recovers the whole block iff losses <= surviving FEC
    // symbols; otherwise nothing beyond what arrived.
    if (r.data_lost > 0 && r.data_lost <= r.fec_survived) recovered_total += r.data_lost;
  }
  return lost_total == 0 ? 1.0
                         : static_cast<double>(recovered_total) /
                               static_cast<double>(lost_total);
}

bool has_fec_unrecoverable_episode(const std::vector<bool>& trace, std::size_t block,
                                   std::size_t fec_per_block) {
  for (std::size_t start = 0; start + 1 <= trace.size(); start += block) {
    const BlockResult r = eval_block(trace, start, block, fec_per_block);
    if (r.data_lost > 0 && r.data_lost > r.fec_survived) return true;
  }
  return false;
}

double percent_increase(double crwan_rate, double fec_rate, double cap_percent) {
  if (fec_rate <= 0.0) return crwan_rate > 0.0 ? cap_percent : 0.0;
  const double inc = (crwan_rate - fec_rate) / fec_rate * 100.0;
  return std::clamp(inc, 0.0, cap_percent);
}

std::vector<FecWhatifRow> fec_whatif_sweep(
    const std::vector<std::vector<bool>>& traces,
    const std::vector<std::pair<std::size_t, std::size_t>>& levels) {
  std::vector<FecWhatifRow> rows(traces.size());
  parallel_for_indexed(traces.size(), resolve_sim_threads(),
                       [&](std::size_t i) {
                         FecWhatifRow& row = rows[i];
                         row.rates.reserve(levels.size());
                         for (const auto& [block, fec] : levels) {
                           row.rates.push_back(fec_recovery_rate(traces[i], block, fec));
                         }
                         if (!levels.empty()) {
                           row.last_level_defeated = has_fec_unrecoverable_episode(
                               traces[i], levels.back().first, levels.back().second);
                         }
                       });
  return rows;
}

}  // namespace jqos::exp
