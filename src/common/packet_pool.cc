#include "common/packet_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace jqos {
namespace {

// Retention bounds (bytes, never object counts; see docs/MEMORY.md). A
// returned packet whose payload capacity outgrew kMaxPacketBytes has that
// capacity dropped before pooling (bursts must not fatten the pool).
constexpr std::size_t kMaxRetainedBytes = 16u << 20;
constexpr std::size_t kMaxPacketBytes = 256u << 10;

// The pool must undercut the allocator it replaces, and glibc's tcache fast
// path is a handful of nanoseconds -- a pthread mutex round per freelist op
// gives most of that back. Each shard owns its pool, so the lock is taken
// contended only by rare cross-thread returns: a test-and-set spinlock makes
// the common uncontended round two plain atomic ops.
class SpinLock {
 public:
  void lock() noexcept {
    while (flag_.test_and_set(std::memory_order_acquire)) {
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    }
  }
  void unlock() noexcept { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

}  // namespace

// Single-slot thread-local stash: the steady-state teardown sequence is
// deleter (packet comes home) immediately followed by control-block
// deallocate, and the next acquire on the same thread wants exactly that
// pair back. Parking the pair here lets the common cycle run with zero
// atomics and zero lock rounds; the locked core freelist below is the
// fallback for bursts, coded packets (key salvage), cross-thread returns,
// and the stash's own eviction/drain. A stashed packet still counts as
// outstanding/live in its core, so the core cannot die underneath it; the
// stash drains to the core on eviction, on accessor reads, and at thread
// exit.
//
// Lifetime rule: `core` is dereferenced ONLY while the stash holds storage
// (pkt or block). Parked storage is still counted in the core's `live`, so
// the core cannot be deleted underneath it; an empty stash may keep a stale
// `core` pointer from a destroyed pool, which is compared but never
// followed. (Stash-hit reuse stats therefore live in the facade, not here.)
namespace {
struct TlsStash {
  PacketPool::Core* core = nullptr;
  Packet* pkt = nullptr;
  void* block = nullptr;
  std::size_t block_size = 0;

  bool complete() const { return pkt != nullptr && block != nullptr; }
  ~TlsStash();
};
thread_local TlsStash tls_stash;

// Returns the stash's contents to its core (full accounting) and empties
// it. Defined after Core.
void drain_stash(TlsStash& s);
}  // namespace

// All freelists share one spinlock and one byte budget. The lock is
// effectively uncontended: each shard owns its pool and drives it from one
// thread, and only rare cross-thread returns (a packet released on a thread
// other than its shard's) take it from a second thread.
struct PacketPool::Core {
  ~Core() {
    for (Packet* p : free_packets) delete p;
    for (void* b : free_blocks) ::operator delete(b);
  }

  // One acquire's worth of recycled storage, popped under a single lock
  // round: the packet plus (when available) the control block the wrapping
  // shared_ptr is about to ask for. The block is prefetched only alongside a
  // reused packet, so a throwing `new Packet()` cannot strand it.
  struct Taken {
    Packet* pkt = nullptr;
    void* block = nullptr;
    std::size_t block_size = 0;
    bool from_stash = false;  // Counted by the facade (see stash_reused_).
  };

  static Taken take_packet(Core& c) {
    // Steady-state fast path: the pair parked by the previous release on
    // this thread. No lock, no atomics; the stashed storage was never
    // subtracted from outstanding/live, so the counters are already right.
    TlsStash& s = tls_stash;
    if (s.core == &c && s.complete()) {
      Taken t{s.pkt, s.block, s.block_size, true};
      s.pkt = nullptr;
      s.block = nullptr;
      return t;
    }
    Taken t;
    {
      std::lock_guard<SpinLock> lk(c.mu);
      ++c.outstanding;
      ++c.live;  // The packet itself.
      c.high_water = std::max(c.high_water, c.outstanding);
      if (!c.free_packets.empty()) {
        t.pkt = c.free_packets.back();
        c.free_packets.pop_back();
        c.pooled_bytes -= sizeof(Packet) + t.pkt->payload.capacity();
        ++c.reused;
        if (!c.free_blocks.empty()) {
          t.block = c.free_blocks.back();
          c.free_blocks.pop_back();
          t.block_size = c.block_size;
          c.pooled_bytes -= c.block_size;
          ++c.live;  // The prefetched control block.
        }
      } else {
        ++c.fresh;
      }
    }
    if (t.pkt == nullptr) t.pkt = new Packet();
    return t;
  }

  // The shared_ptr deleter lands here. Scrub the packet back to the
  // acquire() contract, salvage the covered-key vector's capacity, and pool
  // what the byte budget allows.
  static void release_packet(Core& c, Packet* p) {
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
    // Fast path: park the packet in the thread-local stash (the control
    // block joins it in give_block, and the next acquire takes the pair
    // back without locking). Coded packets with salvageable key capacity
    // take the locked path so the spare-keys freelist sees them.
    if (keys.capacity() == 0) {
      TlsStash& s = tls_stash;
      if (s.core != &c || s.pkt != nullptr) drain_stash(s);
      s.core = &c;
      s.pkt = p;
      return;
    }
    bool pooled = false;
    bool dead = false;
    {
      std::lock_guard<SpinLock> lk(c.mu);
      --c.outstanding;
      --c.live;
      const std::size_t pb = sizeof(Packet) + p->payload.capacity();
      if (c.pooled_bytes + pb <= kMaxRetainedBytes) {
        c.pooled_bytes += pb;
        c.free_packets.push_back(p);
        pooled = true;
      }
      if (keys.capacity() > 0) {
        const std::size_t kb = keys.capacity() * sizeof(PacketKey);
        if (c.pooled_bytes + kb <= kMaxRetainedBytes) {
          c.pooled_bytes += kb;
          c.spare_keys.push_back(std::move(keys));
        }
      }
      dead = c.orphaned && c.live == 0;
    }
    if (!pooled) delete p;
    if (dead) delete &c;
  }

  // Control blocks are all the same size for a given shared_ptr shape; the
  // first allocation records it, and only that size is pooled (anything else
  // -- e.g. a weak_ptr-extended layout from a future libstdc++ -- falls back
  // to the heap, discriminated again at deallocate time).
  static void* take_block(Core& c, std::size_t bytes) {
    {
      std::lock_guard<SpinLock> lk(c.mu);
      ++c.live;
      if (c.block_size == 0) c.block_size = bytes;
      if (bytes == c.block_size && !c.free_blocks.empty()) {
        void* b = c.free_blocks.back();
        c.free_blocks.pop_back();
        c.pooled_bytes -= bytes;
        return b;
      }
    }
    return ::operator new(bytes);
  }

  static void give_block(Core& c, void* b, std::size_t bytes) {
    // Fast path: complete the pair the deleter just parked. Any (packet,
    // block) pairing works -- both are interchangeable storage of `c`.
    TlsStash& s = tls_stash;
    if (s.core == &c && s.pkt != nullptr && s.block == nullptr) {
      s.block = b;
      s.block_size = bytes;
      return;
    }
    bool pooled = false;
    bool dead = false;
    {
      std::lock_guard<SpinLock> lk(c.mu);
      --c.live;
      if (bytes == c.block_size &&
          c.pooled_bytes + bytes <= kMaxRetainedBytes) {
        c.pooled_bytes += bytes;
        c.free_blocks.push_back(b);
        pooled = true;
      }
      dead = c.orphaned && c.live == 0;
    }
    if (!pooled) ::operator delete(b);
    if (dead) delete &c;
  }

  // Stash drain: returns a parked pair to the freelists with the same
  // accounting the locked release/give paths would have done.
  static void absorb_stash(Core& c, Packet* pkt, void* block,
                           std::size_t block_size) {
    bool pooled_pkt = false;
    bool pooled_blk = false;
    bool dead = false;
    {
      std::lock_guard<SpinLock> lk(c.mu);
      if (pkt != nullptr) {
        --c.outstanding;
        --c.live;
        const std::size_t pb = sizeof(Packet) + pkt->payload.capacity();
        if (c.pooled_bytes + pb <= kMaxRetainedBytes) {
          c.pooled_bytes += pb;
          c.free_packets.push_back(pkt);
          pooled_pkt = true;
        }
      }
      if (block != nullptr) {
        --c.live;
        if (block_size == c.block_size &&
            c.pooled_bytes + block_size <= kMaxRetainedBytes) {
          c.pooled_bytes += block_size;
          c.free_blocks.push_back(block);
          pooled_blk = true;
        }
      }
      dead = c.orphaned && c.live == 0;
    }
    if (pkt != nullptr && !pooled_pkt) delete pkt;
    if (block != nullptr && !pooled_blk) ::operator delete(block);
    if (dead) delete &c;
  }

  mutable SpinLock mu;
  // Lifetime: the deleter/allocator reference the core by RAW pointer (a
  // shared_ptr would cost ~6 atomic refcount ops per packet). `live` counts
  // every packet and control block currently checked out; when the facade
  // dies it sets `orphaned`, and whichever release drains `live` to zero
  // (here, in give_block, or the facade dtor itself) deletes the core.
  bool orphaned = false;
  std::size_t live = 0;
  std::vector<Packet*> free_packets;
  std::vector<void*> free_blocks;
  std::vector<std::vector<PacketKey>> spare_keys;
  std::size_t block_size = 0;
  std::size_t pooled_bytes = 0;
  std::size_t outstanding = 0;
  std::size_t high_water = 0;
  std::uint64_t reused = 0;
  std::uint64_t fresh = 0;
};

namespace {

void drain_stash(TlsStash& s) {
  // Dereference the core only when storage is parked: parked storage keeps
  // the core's `live` count nonzero, so the pointer is guaranteed valid. An
  // empty stash may carry a stale pointer to a core that has already died.
  if (s.pkt != nullptr || s.block != nullptr) {
    PacketPool::Core::absorb_stash(*s.core, s.pkt, s.block, s.block_size);
  }
  s.core = nullptr;
  s.pkt = nullptr;
  s.block = nullptr;
  s.block_size = 0;
}

// Thread exit returns whatever the thread still has parked; the core is
// guaranteed alive because parked storage is still counted in `live`.
TlsStash::~TlsStash() { drain_stash(*this); }

struct Recycle {
  PacketPool::Core* core;
  void operator()(Packet* p) const { PacketPool::Core::release_packet(*core, p); }
};

// Carries the control-block storage prefetched by take_packet. The
// shared_ptr constructor rebinds and copies this allocator, but calls
// allocate() exactly once per construction, so copies sharing `pre` cannot
// double-consume it; a size mismatch (first-ever allocation teaches the pool
// the block size, or a libstdc++ layout change) returns the prefetch and
// falls back to the locked path.
template <typename T>
struct CtrlAlloc {
  using value_type = T;

  CtrlAlloc(PacketPool::Core* c, void* prefetched, std::size_t prefetched_size)
      : core(c), pre(prefetched), pre_size(prefetched_size) {}
  template <typename U>
  CtrlAlloc(const CtrlAlloc<U>& o)  // NOLINT(runtime/explicit)
      : core(o.core), pre(o.pre), pre_size(o.pre_size) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (pre != nullptr && bytes == pre_size) return static_cast<T*>(pre);
    if (pre != nullptr) PacketPool::Core::give_block(*core, pre, pre_size);
    return static_cast<T*>(PacketPool::Core::take_block(*core, bytes));
  }
  void deallocate(T* p, std::size_t n) {
    PacketPool::Core::give_block(*core, p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const CtrlAlloc<U>& o) const {
    return core == o.core;
  }

  PacketPool::Core* core;
  void* pre;
  std::size_t pre_size;
};

}  // namespace

PacketPool::PacketPool() : core_(new Core()) {}

PacketPool::~PacketPool() {
  if (tls_stash.core == core_) drain_stash(tls_stash);
  bool dead = false;
  {
    std::lock_guard<SpinLock> lk(core_->mu);
    core_->orphaned = true;
    dead = core_->live == 0;
  }
  if (dead) delete core_;
}

std::shared_ptr<Packet> PacketPool::acquire() {
  Core::Taken t = Core::take_packet(*core_);
  // Plain member increment: acquire is single-threaded by the ownership
  // contract (one pool per shard), and keeping the stat here keeps the
  // stash fast path free of atomics.
  if (t.from_stash) ++stash_reused_;
  return std::shared_ptr<Packet>(t.pkt, Recycle{core_},
                                 CtrlAlloc<Packet>(core_, t.block, t.block_size));
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
  if (m.covered.capacity() == 0) {
    std::lock_guard<SpinLock> lk(core_->mu);
    if (!core_->spare_keys.empty()) {
      core_->pooled_bytes -=
          core_->spare_keys.back().capacity() * sizeof(PacketKey);
      m.covered = std::move(core_->spare_keys.back());
      core_->spare_keys.pop_back();
    }
  }
  m.batch_id = 0;
  m.index = 0;
  m.k = 0;
  m.r = 0;
  return m;
}

// Accessors drain the calling thread's stash first so single-threaded
// callers (tests, benches) observe exact counts; parked storage on OTHER
// threads is still reported as outstanding, which is the truthful reading.
std::size_t PacketPool::pooled_bytes() const {
  if (tls_stash.core == core_) drain_stash(tls_stash);
  std::lock_guard<SpinLock> lk(core_->mu);
  return core_->pooled_bytes;
}
std::size_t PacketPool::high_water() const {
  std::lock_guard<SpinLock> lk(core_->mu);
  return core_->high_water;
}
std::size_t PacketPool::outstanding() const {
  if (tls_stash.core == core_) drain_stash(tls_stash);
  std::lock_guard<SpinLock> lk(core_->mu);
  return core_->outstanding;
}
std::uint64_t PacketPool::reused() const {
  std::lock_guard<SpinLock> lk(core_->mu);
  return core_->reused + stash_reused_;
}
std::uint64_t PacketPool::fresh() const {
  std::lock_guard<SpinLock> lk(core_->mu);
  return core_->fresh;
}

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
