// Consistent-hash routing for the verifier cluster.
//
// Mapping client -> shard with `hash % N` would remap almost every client
// whenever N changes, turning every cluster resize into a full-state
// migration. This router hashes both shards and clients onto one 64-bit
// ring instead. Each shard owns
// `virtual_nodes` points ("vnodes"); a client belongs to the first vnode
// clockwise from its own point. Adding a shard therefore steals only the
// arcs its new vnodes land on -- in expectation K/N of the keys for N
// shards -- and removing one redistributes only the leaver's arcs. The
// vnode count trades lookup-table size against arc-length variance (the
// uniformity the cluster tests assert).
//
// Determinism is part of the contract: a client's point is derived from
// proto::SessionTable::client_key (truncated SHA-256 of the client id)
// and vnode points from SHA-256 of "ring:<shard>:<replica>", so routing
// is identical across processes, platforms and restarts -- no std::hash,
// whose distribution and stability are unspecified. Using the session-key
// digest for clients also means the router can place *state* it only
// knows by key: a handoff selects sessions and dedup rows by their
// 16-byte session keys, not client-id strings, and ownership of a key is
// decidable from the key alone (shard_for_point(point_of_key(k))).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "proto/session_table.h"

namespace tp::cluster {

class ConsistentHashRouter {
 public:
  /// `virtual_nodes` is the number of ring points per shard (0 is
  /// clamped to 1). More vnodes -> smoother key distribution, linearly
  /// larger ring.
  explicit ConsistentHashRouter(std::size_t virtual_nodes = 64);

  /// Adds `shard_id`'s vnodes to the ring. No-op if already a member.
  void add_shard(std::uint32_t shard_id);
  /// Removes `shard_id`'s vnodes. No-op if not a member.
  void remove_shard(std::uint32_t shard_id);
  bool has_shard(std::uint32_t shard_id) const;

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t virtual_nodes() const { return virtual_nodes_; }
  /// Member shard ids, ascending.
  const std::vector<std::uint32_t>& shard_ids() const { return shards_; }

  /// Owner of `client_id`. The ring must be non-empty.
  std::uint32_t shard_for(std::string_view client_id) const {
    return shard_for_point(point_of(client_id));
  }
  /// Owner of a raw ring point (used to place handed-off state known
  /// only by its session key). The ring must be non-empty.
  std::uint32_t shard_for_point(std::uint64_t point) const;

  /// A client's ring point: the leading 8 bytes (big-endian) of its
  /// session key, i.e. of truncated SHA-256(client_id).
  static std::uint64_t point_of(std::string_view client_id) {
    return point_of_key(proto::SessionTable::client_key(client_id));
  }
  static std::uint64_t point_of_key(const proto::SessionTable::Key& key) {
    std::uint64_t p = 0;
    for (std::size_t i = 0; i < 8; ++i) p = (p << 8) | key[i];
    return p;
  }

 private:
  struct VNode {
    std::uint64_t point = 0;
    std::uint32_t shard = 0;
  };

  std::size_t virtual_nodes_;
  std::vector<VNode> ring_;          // sorted by (point, shard)
  std::vector<std::uint32_t> shards_;  // sorted member ids
};

}  // namespace tp::cluster
