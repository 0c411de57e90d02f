#include "net/live_host.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace jqos::net {

using Clock = std::chrono::steady_clock;

LiveHost::LiveHost() : start_(Clock::now()), epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
}

LiveHost::~LiveHost() { ::close(epoll_fd_); }

SimTime LiveHost::wall() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start_).count();
}

UdpEndpoint LiveHost::bind(netsim::Node& node, std::uint16_t port) {
  UdpSocket socket(port);
  epoll_event ev{};
  ev.events = EPOLLIN;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, socket.fd(), &ev) != 0) {
    throw std::runtime_error("epoll_ctl ADD failed");
  }
  return bound_.emplace_back(Bound{&node, std::move(socket)}).socket.local_endpoint();
}

NodeId LiveHost::remote(const UdpEndpoint& endpoint) {
  for (const auto& [ep, id] : remotes_) {
    if (ep == endpoint) return id;
  }
  return remotes_.emplace_back(endpoint, net_.allocate_id()).second;
}

void LiveHost::connect(const netsim::Node& node, NodeId remote,
                       netsim::LatencyModelPtr latency, netsim::LossModelPtr loss) {
  const auto from = std::find_if(bound_.begin(), bound_.end(),
                                 [&node](const Bound& b) { return b.node == &node; });
  const auto to = std::find_if(remotes_.begin(), remotes_.end(),
                               [remote](const auto& r) { return r.second == remote; });
  if (from == bound_.end() || to == remotes_.end()) {
    throw std::invalid_argument("LiveHost::connect: unbound node or unknown remote");
  }
  UdpSocket& socket = from->socket;
  const UdpEndpoint endpoint = to->first;
  net_.add_link(node.id(), remote, std::move(latency), std::move(loss))
      .set_deliver([&socket, endpoint](const PacketPtr& pkt) {
        socket.send_to(pkt->serialize(), endpoint);
      });
}

void LiveHost::receive(Bound& to, const UdpSocket::Datagram& dgram) {
  auto pkt = Packet::parse(dgram.data);
  if (!pkt) {
    ++malformed_;
    return;
  }
  // Ids written by another process name nothing in this network: the packet
  // comes from its endpoint's remote id and has arrived at the bound node.
  // The first datagram from a peer installs a default link back, so replies
  // (a DC serving a NACK) route.
  const NodeId src = remote(dgram.from);
  if (net_.link(to.node->id(), src) == nullptr) connect(*to.node, src);
  pkt->src = src;
  pkt->dst = pkt->final_dst = to.node->id();
  to.node->handle_packet(std::make_shared<const Packet>(std::move(*pkt)));
}

void LiveHost::run_once(std::chrono::milliseconds max_wait) {
  sim_.run_until(wall());
  SimDuration wait = std::chrono::duration_cast<std::chrono::microseconds>(max_wait).count();
  if (!sim_.idle()) wait = std::min(wait, sim_.queue().next_time() - sim_.now());
  const int wait_ms = static_cast<int>((std::max<SimDuration>(wait, 0) + 999) / 1000);
  epoll_event ready{};
  ::epoll_wait(epoll_fd_, &ready, 1, wait_ms);
  sim_.run_until(wall());
  for (Bound& b : bound_) {
    while (auto dgram = b.socket.recv()) receive(b, *dgram);
  }
  sim_.run_until(sim_.now());
}

void LiveHost::run_for(std::chrono::milliseconds duration) {
  const auto deadline = Clock::now() + duration;
  for (auto now = Clock::now(); now < deadline; now = Clock::now()) {
    run_once(std::chrono::ceil<std::chrono::milliseconds>(deadline - now));
  }
}

}  // namespace jqos::net
