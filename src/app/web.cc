#include "app/web.h"

namespace jqos::app {
namespace {

// How long a web workload may run in simulated time before its results are
// read regardless.
constexpr SimDuration kWebRunLimit = minutes(600);

}  // namespace

WebResult run_web_workload(netsim::Network& net, endpoint::Sender& server,
                           endpoint::Receiver& client, endpoint::SessionManager& sessions,
                           const endpoint::RegisterRequest& session_template,
                           const WebWorkloadParams& params) {
  transport::TcpWorkload workload(net, server, client, sessions, session_template,
                                  params.tcp);
  workload.run(params.requests, params.response_bytes, params.request_bytes);
  net.sim().run_until(net.sim().now() + kWebRunLimit);
  WebResult result;
  result.fct_ms = workload.fct_ms();
  result.server = workload.server_stats();
  result.acks = workload.acks_sent();
  result.completed = workload.completed();
  return result;
}

}  // namespace jqos::app
