#include "common/packet_pool.h"

#include <algorithm>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jqos {
namespace {

// Retention bounds (bytes, never object counts; see docs/MEMORY.md). A
// returned packet whose payload capacity outgrew kMaxPacketBytes has that
// capacity dropped before pooling (bursts must not fatten the pool).
constexpr std::size_t kMaxRetainedBytes = 16u << 20;
constexpr std::size_t kMaxPacketBytes = 256u << 10;

}  // namespace

// All freelists share one byte budget. No lock: one thread at a time drives
// a pool and releases its packets (see the header).
struct PacketPool::Core {
  ~Core() { trim(); }

  // Frees what the freelists hold, freelist storage included. Outstanding
  // packets and blocks still come home to the (now empty) freelists.
  void trim() {
    for (Packet* p : free_packets) delete p;
    for (void* b : free_blocks) ::operator delete(b);
    free_packets = {};
    free_blocks = {};
    spare_keys = {};
    pooled_bytes = 0;
  }

  Packet* take_packet() {
    Packet* p = nullptr;
    if (free_packets.empty()) {
      p = new Packet();
      p->payload.reserve(payload_reserve);
      ++fresh;
    } else {
      p = free_packets.back();
      free_packets.pop_back();
      pooled_bytes -= sizeof(Packet) + p->payload.capacity();
      ++reused;
    }
    ++outstanding;
    ++live;
    return p;
  }

  // The shared_ptr deleter lands here. Scrub the packet back to the
  // acquire() contract, salvage the covered-key vector's capacity, and pool
  // what the byte budget allows: the packet first, then its keys.
  void release_packet(Packet* p) {
    std::vector<PacketKey> keys;
    if (p->meta) {
      keys = std::move(p->meta->covered);
      keys.clear();
    }
    p->meta.reset();
    p->type = PacketType::kData;
    p->service = ServiceType::kNone;
    p->flow = 0;
    p->seq = 0;
    p->src = kInvalidNode;
    p->dst = kInvalidNode;
    p->final_dst = kInvalidNode;
    p->sent_at = 0;
    p->ecn_capable = false;
    p->ecn_ce = false;
    p->payload.clear();
    if (p->payload.capacity() > kMaxPacketBytes) {
      p->payload.shrink_to_fit();
    }
    --outstanding;
    const std::size_t pb = sizeof(Packet) + p->payload.capacity();
    if (pooled_bytes + pb <= kMaxRetainedBytes) {
      pooled_bytes += pb;
      free_packets.push_back(p);
    } else {
      delete p;
    }
    const std::size_t kb = keys.capacity() * sizeof(PacketKey);
    if (kb > 0 && pooled_bytes + kb <= kMaxRetainedBytes) {
      pooled_bytes += kb;
      spare_keys.push_back(std::move(keys));
    }
    drop_live();
  }

  // Control blocks are all the same size for a given shared_ptr shape; the
  // first allocation records it, and only that size is pooled (anything else
  // -- e.g. a weak_ptr-extended layout from a future libstdc++ -- falls back
  // to the heap, discriminated again at deallocate time).
  void* take_block(std::size_t bytes) {
    if (block_size == 0) block_size = bytes;
    void* b = nullptr;
    if (bytes == block_size && !free_blocks.empty()) {
      b = free_blocks.back();
      free_blocks.pop_back();
      pooled_bytes -= bytes;
    } else {
      b = ::operator new(bytes);
    }
    ++live;
    return b;
  }

  void give_block(void* b, std::size_t bytes) {
    if (bytes == block_size && pooled_bytes + bytes <= kMaxRetainedBytes) {
      pooled_bytes += bytes;
      free_blocks.push_back(b);
    } else {
      ::operator delete(b);
    }
    drop_live();
  }

  // One packet or control block came home; the last one after the facade
  // is gone deletes the core.
  void drop_live() {
    if (--live == 0 && orphaned) delete this;
  }

  // Lifetime: the deleter/allocator reference the core by RAW pointer (a
  // shared_ptr would cost ~6 atomic refcount ops per packet). `live` counts
  // every packet and control block currently checked out; when the facade
  // dies it sets `orphaned`, and whichever return drains `live` to zero (or
  // the facade dtor itself) deletes the core.
  bool orphaned = false;
  std::size_t live = 0;
  std::vector<Packet*> free_packets;
  std::vector<void*> free_blocks;
  std::vector<std::vector<PacketKey>> spare_keys;
  std::size_t block_size = 0;
  std::size_t payload_reserve = 0;  // Payload capacity of every fresh packet.
  std::size_t pooled_bytes = 0;
  std::size_t outstanding = 0;
  std::uint64_t reused = 0;
  std::uint64_t fresh = 0;
};

namespace {

struct Recycle {
  PacketPool::Core* core;
  void operator()(Packet* p) const { core->release_packet(p); }
};

template <typename T>
struct CtrlAlloc {
  using value_type = T;

  explicit CtrlAlloc(PacketPool::Core* c) : core(c) {}
  template <typename U>
  CtrlAlloc(const CtrlAlloc<U>& o)  // NOLINT(runtime/explicit)
      : core(o.core) {}

  T* allocate(std::size_t n) { return static_cast<T*>(core->take_block(n * sizeof(T))); }
  void deallocate(T* p, std::size_t n) { core->give_block(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const CtrlAlloc<U>& o) const {
    return core == o.core;
  }

  PacketPool::Core* core;
};

}  // namespace

PacketPool::PacketPool() : core_(new Core()) {}

PacketPool::~PacketPool() {
  core_->orphaned = true;
  if (core_->live == 0) delete core_;
}

std::shared_ptr<Packet> PacketPool::acquire() {
  return std::shared_ptr<Packet>(core_->take_packet(), Recycle{core_},
                                 CtrlAlloc<Packet>(core_));
}

std::shared_ptr<Packet> PacketPool::acquire_copy(const Packet& src) {
  auto p = acquire();
  p->type = src.type;
  p->service = src.service;
  p->flow = src.flow;
  p->seq = src.seq;
  p->src = src.src;
  p->dst = src.dst;
  p->final_dst = src.final_dst;
  p->sent_at = src.sent_at;
  p->ecn_capable = src.ecn_capable;
  p->ecn_ce = src.ecn_ce;
  p->payload = src.payload;
  if (src.meta) {
    CodedMeta& m = engage_meta(*p);
    m.batch_id = src.meta->batch_id;
    m.index = src.meta->index;
    m.k = src.meta->k;
    m.r = src.meta->r;
    m.covered = src.meta->covered;
  }
  return p;
}

CodedMeta& PacketPool::engage_meta(Packet& pkt) {
  if (!pkt.meta) pkt.meta.emplace();
  CodedMeta& m = *pkt.meta;
  m.covered.clear();
  if (m.covered.capacity() == 0 && !core_->spare_keys.empty()) {
    core_->pooled_bytes -= core_->spare_keys.back().capacity() * sizeof(PacketKey);
    m.covered = std::move(core_->spare_keys.back());
    core_->spare_keys.pop_back();
  }
  m.batch_id = 0;
  m.index = 0;
  m.k = 0;
  m.r = 0;
  return m;
}

void PacketPool::reserve_payloads(std::size_t bytes) {
  core_->payload_reserve =
      std::max(core_->payload_reserve, std::min(bytes, kMaxPacketBytes));
}

void PacketPool::trim() { core_->trim(); }

std::size_t PacketPool::pooled_bytes() const { return core_->pooled_bytes; }
std::size_t PacketPool::outstanding() const { return core_->outstanding; }
std::uint64_t PacketPool::reused() const { return core_->reused; }
std::uint64_t PacketPool::fresh() const { return core_->fresh; }

bool PacketPool::env_enabled() {
  const char* v = std::getenv("JQOS_OBJ_POOL");
  if (v == nullptr) return true;
  const std::string_view s(v);
  if (s == "1") return true;
  if (s == "0") return false;
  // Same policy as JQOS_SIM_THREADS: a set but unrecognized value fails
  // loudly, so a pool-off run cannot silently test the pooled path.
  throw std::invalid_argument(std::string("JQOS_OBJ_POOL='") + v +
                              "' is not a valid setting; expected 0 (no pool) or 1 "
                              "(pool). Unset JQOS_OBJ_POOL to use the default.");
}

}  // namespace jqos
