// Non-blocking UDP socket wrapper. LiveHost gives each bound node one and
// carries all of its traffic over it (data, coded packets, NACKs,
// recoveries), as the prototype carries its data plane over UDP (Section 5).
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace jqos::net {

struct UdpEndpoint {
  std::uint32_t ip_host_order = 0x7f000001;  // 127.0.0.1
  std::uint16_t port = 0;

  sockaddr_in to_sockaddr() const;
  static UdpEndpoint from_sockaddr(const sockaddr_in& sa);
  std::string to_string() const;

  friend bool operator==(const UdpEndpoint&, const UdpEndpoint&) = default;
};

class UdpSocket {
 public:
  // Binds to 127.0.0.1:`port` (0 = ephemeral) in non-blocking mode.
  explicit UdpSocket(std::uint16_t port = 0);
  ~UdpSocket();

  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&&) = delete;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  int fd() const { return fd_; }
  UdpEndpoint local_endpoint() const { return local_; }

  // Returns bytes sent or -1 (EWOULDBLOCK and real errors alike; datagram
  // best effort).
  ssize_t send_to(std::span<const std::uint8_t> data, const UdpEndpoint& dst);

  struct Datagram {
    std::vector<std::uint8_t> data;
    UdpEndpoint from;
  };
  // Non-blocking receive; nullopt when no datagram is queued.
  std::optional<Datagram> recv();

 private:
  int fd_ = -1;
  UdpEndpoint local_;
};

}  // namespace jqos::net
