// Packet-pool tests: PacketPool recycling behind the packet.h factories,
// its byte-bounded retention, packets that outlive their pool (ASan
// validates the Core lifetime rules), the JQOS_OBJ_POOL env gate, and the
// load-bearing determinism property: WAN-scenario and churn fingerprints are
// bit-identical with pools on vs off, across event-queue backends. Pool
// state must never feed a simulation value.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/packet.h"
#include "common/packet_pool.h"
#include "common/rng.h"
#include "exp/scenario.h"
#include "geo/path_dataset.h"
#include "netsim/event_queue.h"
#include "test_guards.h"
#include "workload/churn.h"

namespace jqos {
namespace {

using jqos::testing::EnvVarGuard;
using jqos::testing::EvqBackendGuard;

// --- PacketPool ----------------------------------------------------------

// Pool checkouts made by a short two-path shard built under the current
// JQOS_OBJ_POOL setting.
std::uint64_t shard_pool_checkouts() {
  Rng geo_rng(0x706f6f6cULL);
  std::vector<exp::IndexedPath> paths;
  for (auto& sample : geo::planetlab_paths(2, geo_rng)) {
    paths.push_back(exp::IndexedPath{paths.size(), std::move(sample)});
  }
  const exp::WanScenarioParams params;
  exp::ScenarioShard shard(std::move(paths), params, netsim::EvqBackend::kLadder);
  shard.run(sec(1));
  return shard.pool(0).fresh() + shard.pool(0).reused();
}

TEST(PacketPoolTest, EnvGateReadAtConstruction) {
  {
    const EnvVarGuard off("JQOS_OBJ_POOL", std::string("0"));
    EXPECT_FALSE(PacketPool::env_enabled());
    // The shard hands its entities a null pool: its own pool stays unused.
    EXPECT_EQ(shard_pool_checkouts(), 0u);
  }
  {
    const EnvVarGuard on("JQOS_OBJ_POOL", std::string("1"));
    EXPECT_TRUE(PacketPool::env_enabled());
  }
  {
    const EnvVarGuard unset("JQOS_OBJ_POOL", std::nullopt);
    EXPECT_TRUE(PacketPool::env_enabled());  // Pools default ON.
    EXPECT_GT(shard_pool_checkouts(), 0u);
  }
  // Strict parse: a set but unrecognized value must not silently pool.
  for (const char* bogus : {"", "off", "false", "2", "00"}) {
    const EnvVarGuard bad("JQOS_OBJ_POOL", std::string(bogus));
    EXPECT_THROW(PacketPool::env_enabled(), std::invalid_argument) << "'" << bogus << "'";
  }
}

TEST(PacketPoolTest, AcquireRecyclesStorageAndControlBlock) {
  PacketPool pool;
  {
    auto p = pool.acquire();
    p->payload.assign(512, 0xee);
    pool.engage_meta(*p).covered.push_back(PacketKey{7, 9});
  }
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.fresh(), 1u);

  auto p2 = pool.acquire();
  EXPECT_EQ(pool.reused(), 1u);
  // Scrubbed: default header, empty payload, meta disengaged -- but with
  // capacity retained so refilling allocates nothing.
  EXPECT_EQ(p2->type, PacketType::kData);
  EXPECT_EQ(p2->flow, 0u);
  EXPECT_FALSE(p2->meta.has_value());
  EXPECT_TRUE(p2->payload.empty());
  EXPECT_GE(p2->payload.capacity(), 512u);
  // engage_meta hands back salvaged covered-key capacity.
  CodedMeta& m = pool.engage_meta(*p2);
  EXPECT_TRUE(m.covered.empty());
  EXPECT_GE(m.covered.capacity(), 1u);
}

TEST(PacketPoolTest, AcquireCopyIsDeep) {
  PacketPool pool;
  Packet src;
  src.type = PacketType::kCrossCoded;
  src.service = ServiceType::kCode;
  src.flow = 42;
  src.seq = 1000;
  src.src = 3;
  src.dst = 4;
  src.final_dst = 5;
  src.sent_at = 123456;
  src.ecn_capable = true;
  src.payload = {1, 2, 3, 4, 5};
  src.meta.emplace();
  src.meta->batch_id = 77;
  src.meta->k = 4;
  src.meta->r = 2;
  src.meta->covered = {PacketKey{42, 998}, PacketKey{42, 999}};

  auto copy = pool.acquire_copy(src);
  EXPECT_EQ(copy->type, src.type);
  EXPECT_EQ(copy->service, src.service);
  EXPECT_EQ(copy->flow, src.flow);
  EXPECT_EQ(copy->seq, src.seq);
  EXPECT_EQ(copy->src, src.src);
  EXPECT_EQ(copy->dst, src.dst);
  EXPECT_EQ(copy->final_dst, src.final_dst);
  EXPECT_EQ(copy->sent_at, src.sent_at);
  EXPECT_EQ(copy->ecn_capable, src.ecn_capable);
  EXPECT_EQ(copy->payload, src.payload);
  ASSERT_TRUE(copy->meta.has_value());
  EXPECT_EQ(*copy->meta, *src.meta);
  // Deep: mutating the copy leaves the source alone.
  copy->payload[0] = 99;
  EXPECT_EQ(src.payload[0], 1);
}

TEST(PacketPoolTest, PacketsOutliveThePool) {
  // The deleter and control-block allocator hold the Core alive, so a packet
  // that outlives its pool (shard teardown with in-flight packets) recycles
  // into a still-live freelist and the storage dies with the last reference.
  PacketPtr survivor;
  {
    PacketPool pool;
    auto p = pool.acquire();
    p->payload.assign(64, 0x5a);
    survivor = std::move(p);
  }
  EXPECT_EQ(survivor->payload.size(), 64u);
  survivor.reset();  // Must not crash; ASan validates.
}

TEST(PacketPoolTest, RetentionIsByteBounded) {
  PacketPool pool;
  // A payload past the 256 KB per-packet cap is shrunk before pooling: the
  // packet comes back, its burst capacity does not.
  {
    auto p = pool.acquire();
    p->payload.assign(300u << 10, 0x11);
  }
  {
    auto p = pool.acquire();
    EXPECT_EQ(pool.reused(), 1u);
    EXPECT_LT(p->payload.capacity(), 256u << 10);
  }
  // 100 packets of 200 KB each (20 MB) returned together overrun the 16 MB
  // budget: the pool keeps what fits and frees the rest.
  {
    std::vector<std::shared_ptr<Packet>> held;
    for (int i = 0; i < 100; ++i) {
      held.push_back(pool.acquire());
      held.back()->payload.assign(200u << 10, 0x22);
    }
  }
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_GT(pool.pooled_bytes(), 0u);
  EXPECT_LE(pool.pooled_bytes(), 16u << 20);
}

TEST(PacketPoolTest, TrimReleasesOnlyPooledStorage) {
  PacketPool pool;
  auto held = pool.acquire();
  held->payload.assign(512, 0x33);
  {
    std::vector<std::shared_ptr<Packet>> returned;
    for (int i = 0; i < 4; ++i) {
      returned.push_back(pool.acquire());
      returned.back()->payload.assign(512, 0x44);
      pool.engage_meta(*returned.back()).covered.push_back(PacketKey{1, 2});
    }
  }
  ASSERT_GT(pool.pooled_bytes(), 0u);
  const std::uint64_t fresh = pool.fresh();
  const std::uint64_t reused = pool.reused();

  pool.trim();
  EXPECT_EQ(pool.pooled_bytes(), 0u);
  EXPECT_EQ(pool.outstanding(), 1u);
  EXPECT_EQ(pool.fresh(), fresh);
  EXPECT_EQ(pool.reused(), reused);

  // Nothing is left to reuse: the next checkout is built fresh, and no
  // salvaged key vector backs its meta.
  auto after = pool.acquire();
  EXPECT_EQ(pool.fresh(), fresh + 1);
  EXPECT_EQ(pool.reused(), reused);
  EXPECT_EQ(pool.engage_meta(*after).covered.capacity(), 0u);
  after.reset();

  // The packet held across the trim still comes home and is pooled again.
  const std::size_t pooled = pool.pooled_bytes();
  held.reset();
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_GT(pool.pooled_bytes(), pooled);
}

TEST(PacketPoolTest, FactoriesProduceIdenticalPacketsPooledOrNot) {
  PacketPool pool;
  const PacketPtr pooled = make_data_packet(9, 55, 1, 2, 777, 300, &pool);
  const PacketPtr plain = make_data_packet(9, 55, 1, 2, 777, 300, nullptr);
  EXPECT_EQ(pooled->serialize(), plain->serialize());
  EXPECT_EQ(pooled->wire_size(), plain->wire_size());
}

// --- Determinism: pools must never perturb simulation values -------------

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
}

void fnv_d(std::uint64_t& h, double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  fnv(h, u);
}

std::uint64_t wan_fingerprint(exp::ScenarioShard& sc) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < sc.path_count(); ++i) {
    const exp::PathRuntime& rt = sc.path(i);
    fnv(h, rt.outcome.size());
    for (exp::Outcome o : rt.outcome) fnv(h, static_cast<std::uint64_t>(o));
    for (double v : rt.recovery_ms.values()) fnv_d(h, v);
    fnv(h, rt.delivered_direct);
    fnv(h, rt.recovered);
    fnv(h, rt.lost);
  }
  const auto enc = sc.encoder_totals();
  for (std::uint64_t v : {enc.data_packets, enc.cross_batches, enc.in_batches,
                          enc.coded_sent, enc.timer_flushes}) {
    fnv(h, v);
  }
  const auto rec = sc.recovery_totals();
  for (std::uint64_t v : {rec.nacks, rec.nack_keys, rec.in_stream_served,
                          rec.coop_ops, rec.coop_success, rec.recovered_sent,
                          rec.batches_stored}) {
    fnv(h, v);
  }
  fnv(h, sc.sim().events_processed());
  return h;
}

// One lossy coded-path scenario; the pool env guard wraps CONSTRUCTION
// because every scenario shard reads JQOS_OBJ_POOL when it is built.
std::uint64_t wan_fp(bool pooled, netsim::EvqBackend backend) {
  const EvqBackendGuard evq(backend);
  const EnvVarGuard pool_env("JQOS_OBJ_POOL", std::string(pooled ? "1" : "0"));
  Rng geo_rng(0x706f6f6cULL);
  const auto paths = geo::planetlab_paths(3, geo_rng);
  exp::WanScenarioParams p;
  p.seed = 0xdecafbadULL;
  p.direct.bernoulli_loss = 0.02;  // Enough loss to exercise NACK/recovery.
  p.cbr.packets_per_second = 60.0;
  exp::ScenarioShard sc(paths, p);
  sc.run(sec(2));
  return wan_fingerprint(sc);
}

TEST(ObjPoolDeterminism, WanFingerprintIdenticalPoolsOnOff) {
  for (const auto backend : {netsim::EvqBackend::kHeap, netsim::EvqBackend::kLadder}) {
    SCOPED_TRACE(std::string("backend=") + netsim::evq_backend_name(backend));
    EXPECT_EQ(wan_fp(/*pooled=*/true, backend), wan_fp(/*pooled=*/false, backend));
  }
}

std::uint64_t churn_fp(bool pooled, netsim::EvqBackend backend) {
  const EvqBackendGuard evq(backend);
  const EnvVarGuard pool_env("JQOS_OBJ_POOL", std::string(pooled ? "1" : "0"));
  workload::ChurnConfig cfg;
  cfg.num_pairs = 3;
  cfg.duration = sec(2);
  cfg.arrivals.sessions_per_sec = 20.0;
  cfg.packets_per_second = 80.0;
  cfg.max_session_packets = 50;
  cfg.scenario.seed = 0xc0ffeeULL;
  cfg.num_shards = 1;
  cfg.num_threads = 1;
  return workload::run_churn(cfg).fingerprint();
}

TEST(ObjPoolDeterminism, ChurnFingerprintIdenticalPoolsOnOff) {
  for (const auto backend : {netsim::EvqBackend::kHeap, netsim::EvqBackend::kLadder}) {
    SCOPED_TRACE(std::string("backend=") + netsim::evq_backend_name(backend));
    EXPECT_EQ(churn_fp(/*pooled=*/true, backend), churn_fp(/*pooled=*/false, backend));
  }
}

}  // namespace
}  // namespace jqos
