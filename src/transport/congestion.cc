#include "transport/congestion.h"

#include <algorithm>

namespace jqos::transport {

const char* cc_kind_name(CcKind k) {
  switch (k) {
    case CcKind::kReno: return "reno";
    case CcKind::kRack: return "rack";
    case CcKind::kBbrLite: return "bbr";
  }
  return "?";
}

std::size_t CcScoreboard::inflight() const {
  std::size_t n = 0;
  for (std::uint32_t s = highest_acked; s < next_to_send; ++s) {
    if (sacked->count(s) == 0) ++n;
  }
  return n;
}

std::uint32_t CcScoreboard::above_highest_sacked() const {
  return sacked->empty() ? highest_acked + 1 : *sacked->rbegin() + 1;
}

SimTime CcScoreboard::effective_xmit_time(std::uint32_t seq) const {
  auto rt = retransmitted->find(seq);
  if (rt != retransmitted->end()) return rt->second;
  auto st = send_times->find(seq);
  return st == send_times->end() ? -1 : st->second;
}

namespace detail {

void collect_sack_holes(const CcScoreboard& sb, std::uint32_t high, SimTime now,
                        SimDuration rto, std::vector<std::uint32_t>& out) {
  for (std::uint32_t s = sb.highest_acked; s < high && s < sb.total_segments; ++s) {
    if (sb.sacked->count(s) != 0) continue;
    auto rt = sb.retransmitted->find(s);
    if (rt != sb.retransmitted->end() && now - rt->second < rto) continue;
    out.push_back(s);
  }
}

void collect_rack_losses(const CcScoreboard& sb, SimTime rack_xmit_time, SimDuration srtt,
                         std::vector<std::uint32_t>& out) {
  if (rack_xmit_time < 0) return;
  const SimDuration window = std::max<SimDuration>(srtt / 4, msec(1));
  const std::uint32_t high = sb.above_highest_sacked();
  for (std::uint32_t s = sb.highest_acked; s < high && s < sb.total_segments; ++s) {
    if (sb.sacked->count(s) != 0) continue;
    const SimTime sent = sb.effective_xmit_time(s);
    if (sent >= 0 && sent + window <= rack_xmit_time) out.push_back(s);
  }
}

}  // namespace detail

CcPtr make_congestion_controller(CcKind kind) {
  switch (kind) {
    case CcKind::kReno: return make_reno_cc();
    case CcKind::kRack: return make_rack_cc();
    case CcKind::kBbrLite: return make_bbr_lite_cc();
  }
  return make_reno_cc();
}

}  // namespace jqos::transport
