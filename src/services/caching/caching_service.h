// The caching service (Section 3.2).
//
// Stores copies of data packets arriving with service == kCache, and answers
// kPull requests (and the NACK-based recovery protocol of Section 3.4) from
// the store. Supports the use cases of Figure 3:
//  - loss recovery: a copy of each packet is cached at the DC near the
//    receiver; on loss the receiver pulls it (total delay y + 2*delta);
//  - hybrid multicast: one cached copy serves pulls from many receivers;
//  - mobility/DTN rendezvous: packets addressed to an offline receiver wait
//    in the cache until pulled.
#pragma once

#include <cstdint>

#include "overlay/datacenter.h"
#include "services/caching/cache_store.h"

namespace jqos::services {

struct CachingServiceStats {
  std::uint64_t cached = 0;
  std::uint64_t pulls = 0;
  std::uint64_t pull_hits = 0;
  std::uint64_t pull_misses = 0;
  std::uint64_t nack_recoveries = 0;
  std::uint64_t crash_wipes = 0;  // DC crashes that emptied the store.
};

class CachingService final : public overlay::DcService {
 public:
  // `ttl` is how long cached packets stay pullable. The paper's use cases
  // need only short-term storage; mobility scenarios pass a longer TTL.
  explicit CachingService(SimDuration ttl = sec(30), std::uint64_t max_bytes = 0)
      : ttl_(ttl), store_(max_bytes) {}

  const char* name() const override { return "caching"; }

  bool handle(overlay::DataCenter& dc, const PacketPtr& pkt) override;

  // Fault layer: the cache restarts cold -- every stored packet is gone and
  // later pulls for pre-crash traffic miss (the receiver's NACK path then
  // falls back to the sender's direct copy).
  void on_dc_crash() override {
    ++service_stats_.crash_wipes;
    store_.clear();
  }

  const CachingServiceStats& stats() const { return service_stats_; }
  const CacheStore& store() const { return store_; }
  SimDuration ttl() const { return ttl_; }

 private:
  void serve(overlay::DataCenter& dc, const PacketKey& key, NodeId requester);

  SimDuration ttl_;
  CacheStore store_;
  CachingServiceStats service_stats_;
  // NACK parse scratch recycled across packets (handlers never reenter).
  NackInfo nack_scratch_;
};

}  // namespace jqos::services
