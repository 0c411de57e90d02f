// The pooled Packet recycler behind the packet.h factories.
//
// A PacketPtr is a shared_ptr<const Packet>, so a per-packet heap cost hides
// in two places: the Packet itself (plus its payload / covered-key vectors)
// and the shared_ptr CONTROL BLOCK. PacketPool recycles both:
//
//  * acquire() pops a scrubbed Packet off a freelist -- payload capacity and
//    (via engage_meta) covered-key capacity are retained across checkouts --
//    and wraps it in a shared_ptr whose custom deleter returns the storage
//    here instead of freeing it.
//  * The shared_ptr is built with a pooling allocator, so the control block
//    comes from a freelist of fixed-size blocks rather than operator new.
//  * A fresh packet is born with the pool's payload reserve as its payload
//    capacity. The reserve starts at 0; a coding encoder raises it to its
//    padded shard length before it takes coded packets, and it never falls.
//    Any packet can later be checked out as a coded packet, so in a coding
//    shard recycled payloads already fit the shard instead of each growing
//    (free + larger malloc) on its first coded checkout, which fragments
//    the heap. A shard that never codes keeps a reserve of 0.
//
// Call sites keep the existing PacketPtr type: a pooled packet is
// indistinguishable from a heap one, and a null pool everywhere means plain
// make_shared (what a scenario hands out under JQOS_OBJ_POOL=0). The deleter
// and allocator hold a raw pointer to the pool core -- refcounting it through
// a shared_ptr would cost half a dozen atomic ops per packet -- and the core
// counts its outstanding packets and control blocks intrusively: it deletes
// itself when the facade is gone AND the last piece of storage returns, so
// packets that outlive their pool still recycle safely.
//
// Threading: only one thread at a time uses a pool -- acquiring from it,
// releasing its packets, reading its counts -- and the pool takes no lock.
// Moving a pool or its packets to another thread needs a happens-before
// edge, such as thread start or join (a worker builds, runs and trims a
// shard, the caller destroys it).
//
// Retained memory is bounded by total bytes across packets, control blocks,
// and salvaged key vectors (never by object count -- the PR 7 ratchet
// lesson); see docs/MEMORY.md for the ownership contract. The budget serves
// reuse while a shard runs: a driver that keeps a finished shard until its
// merge calls trim(), so a finished shard keeps no pooled storage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/packet.h"

namespace jqos {

class PacketPool {
 public:
  PacketPool();
  // Marks the core orphaned; the core frees itself once the last
  // outstanding packet and control block have come home.
  ~PacketPool();
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // A blank mutable packet: header fields default-initialized, payload
  // empty (capacity retained), meta disengaged. Fill it, then hand it off
  // as PacketPtr.
  std::shared_ptr<Packet> acquire();

  // A mutable deep copy of `src` into recycled storage.
  std::shared_ptr<Packet> acquire_copy(const Packet& src);

  // Engages pkt.meta (batch/index/k/r zeroed, covered cleared), handing the
  // covered vector salvaged capacity from previously recycled coded packets
  // so filling it allocates nothing in steady state.
  CodedMeta& engage_meta(Packet& pkt);

  // Raises the payload capacity every later fresh packet reserves to
  // `bytes`, capped at the per-packet retention cap (256 KB); never lowers
  // it. Packets already built keep their capacity.
  void reserve_payloads(std::size_t bytes);

  // Frees every packet, control block and key vector kept for reuse.
  // Outstanding packets are untouched and still come home to the pool;
  // reused(), fresh() and outstanding() keep counting.
  void trim();

  // Byte-bounded retained-memory accounting.
  std::size_t pooled_bytes() const;
  std::size_t outstanding() const;
  std::uint64_t reused() const;  // freelist hits
  std::uint64_t fresh() const;   // global-allocator constructions

  // JQOS_OBJ_POOL, read on every call (not cached) so one process can
  // compare both modes: unset or "1" means pool, "0" means hand out a null
  // pool (plain make_shared, the reference path ASan can see into). Any
  // other value throws std::invalid_argument.
  static bool env_enabled();

  // Opaque freelist state (defined in packet_pool.cc); public only so the
  // file-local deleter and control-block allocator can name it.
  struct Core;

 private:
  Core* core_;  // Self-deleting once orphaned and drained; see ~PacketPool.
};

}  // namespace jqos
