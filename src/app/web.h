// Web-transfer workload built on the TCP model: N short request/response
// transfers, the Section 6.4 scenario (12 B request, 50 KB response). Thin
// convenience wrapper so examples and benches share one entry point.
#pragma once

#include <cstdint>

#include "transport/tcp_model.h"

namespace jqos::app {

struct WebWorkloadParams {
  std::size_t requests = 1000;
  std::size_t response_bytes = 50 * 1000;
  std::size_t request_bytes = 12;
  transport::TcpParams tcp;
};

struct WebResult {
  Samples fct_ms;
  transport::TcpServerStats server;
  std::uint64_t acks = 0;
  std::size_t completed = 0;
};

// Runs the workload to completion on the supplied (already wired) hosts and
// returns the FCT distribution. The simulator runs until its queue empties
// or 600 simulated minutes pass, whichever comes first; either way its clock
// then reads 600 minutes past the start.
WebResult run_web_workload(netsim::Network& net, endpoint::Sender& server,
                           endpoint::Receiver& client, endpoint::SessionManager& sessions,
                           const endpoint::RegisterRequest& session_template,
                           const WebWorkloadParams& params);

}  // namespace jqos::app
