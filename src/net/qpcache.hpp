// Bounded NIC connection-context cache (the "ICM cache" of a real HCA):
// the NIC keeps QP and MR contexts in a small on-chip SRAM backed by host
// memory. While the working set fits, every post/DMA hits on-chip state;
// once a front end talks to more connections than the cache holds, each
// post first fetches the evicted context over PCIe — the RDMAvisor
// observation of why one dedicated RC QP per peer collapses at datacenter
// scale, and why DCT-style shared contexts restore flat cost.
//
// Entries carry the owning tenant so evictions can be attributed: an
// MR-thrash storm that churns the cache shows up as evictions charged to
// the VICTIM tenants whose entries it displaced — the noisy-neighbor
// fingerprint the multi-tenant tests assert on.
//
// This class is only the replacement policy + accounting; the miss
// penalty and its serialisation are charged by net::Nic.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <unordered_map>

#include "net/qos.hpp"
#include "sim/time.hpp"

namespace rdmamon::net {

/// Cost of fetching one evicted context from host memory on a miss.
/// QP-context fetches serialise on the NIC's single fetch engine (the
/// thrash is a queueing collapse, not just an additive tax); MR fetches
/// stall the already-serialised DMA engine.
inline constexpr sim::Duration kCtxMissPenalty = sim::nsec(450);

/// LRU set of context keys with hit/miss/eviction accounting. Keys are an
/// opaque 64-bit space; net::Nic namespaces QP contexts and MR entries
/// into disjoint halves of it (one unified cache, like the real ICM).
class NicCtxCache {
 public:
  explicit NicCtxCache(std::size_t capacity) : cap_(capacity) {}

  /// Touches `key`: true on hit (entry moved to MRU), false on miss (the
  /// entry is brought in owned by `owner`, evicting the LRU entry when
  /// full — the eviction is charged to the DISPLACED entry's owner).
  bool access(std::uint64_t key, TenantId owner = 0);

  /// Drops `key` (context destroyed, e.g. an MR deregistration). Not an
  /// eviction — the entry is invalid, not displaced. False if absent.
  bool erase(std::uint64_t key);

  std::size_t capacity() const { return cap_; }
  std::size_t size() const { return pos_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  /// Evictions whose displaced entry belonged to `owner`.
  std::uint64_t evictions_for(TenantId owner) const;

 private:
  struct Entry {
    std::uint64_t key = 0;
    TenantId owner = 0;
  };

  std::size_t cap_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> pos_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::map<TenantId, std::uint64_t> evictions_by_;
};

}  // namespace rdmamon::net
