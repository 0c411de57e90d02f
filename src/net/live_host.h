// The live runtime: the simulator's own entities (endpoint::Sender,
// endpoint::Receiver, an overlay::DataCenter with its services) exchanging
// real UDP datagrams in the J-QoS wire format. This mirrors the prototype's
// proxy mode (Section 5): applications hand packets to a local J-QoS
// process, which duplicates them toward the cloud.
//
// A LiveHost owns one netsim::Simulator whose clock follows wall time, one
// netsim::Network, and one socket per bound node. A link from a bound node
// to a remote endpoint puts what it delivers on the wire, so the link's
// loss and latency models impair that leg; loopback itself is lossless and
// instant. Inbound datagrams are parsed, re-addressed and handed to the
// bound node's handle_packet.
//
// The simulator remains the vehicle for the paper's quantitative
// experiments; the live host demonstrates (and tests) that the same wire
// format and recovery protocol run over actual sockets. Nodes built on
// net() must not outlive the host. One host per thread; nothing here is
// thread-safe.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "net/udp_socket.h"
#include "netsim/network.h"

namespace jqos::net {

class LiveHost {
 public:
  LiveHost();
  ~LiveHost();

  LiveHost(const LiveHost&) = delete;
  LiveHost& operator=(const LiveHost&) = delete;

  // Simulated time is wall time since construction, in microseconds.
  netsim::Simulator& sim() { return sim_; }
  netsim::Network& net() { return net_; }

  // Gives `node`, attached to net(), its own socket on 127.0.0.1:`port`
  // (0 = ephemeral) and returns the socket's endpoint.
  UdpEndpoint bind(netsim::Node& node, std::uint16_t port = 0);

  // The stable NodeId that stands for `endpoint` in net(). No Node is
  // behind it: packets reach the endpoint over links made by connect().
  NodeId remote(const UdpEndpoint& endpoint);

  // Installs the link node -> remote: what it delivers leaves the bound
  // node's socket for the remote's endpoint.
  void connect(const netsim::Node& node, NodeId remote,
               netsim::LatencyModelPtr latency = netsim::make_fixed_latency(0),
               netsim::LossModelPtr loss = netsim::make_no_loss());

  // Runs the events due by wall time, waits up to `max_wait` (less if an
  // event falls due sooner) for a datagram, runs what fell due meanwhile,
  // then hands every queued datagram to its node and runs what that sent
  // without delay.
  void run_once(std::chrono::milliseconds max_wait);
  // Calls run_once until `duration` of wall time has passed.
  void run_for(std::chrono::milliseconds duration);

  // Datagrams Packet::parse refused.
  std::uint64_t malformed() const { return malformed_; }

 private:
  struct Bound {
    netsim::Node* node;
    UdpSocket socket;
  };

  SimTime wall() const;
  void receive(Bound& to, const UdpSocket::Datagram& dgram);

  std::chrono::steady_clock::time_point start_;
  netsim::Simulator sim_;
  netsim::Network net_{sim_};
  int epoll_fd_;
  std::deque<Bound> bound_;  // A deque: links hold references to sockets.
  std::vector<std::pair<UdpEndpoint, NodeId>> remotes_;
  std::uint64_t malformed_ = 0;
};

}  // namespace jqos::net
