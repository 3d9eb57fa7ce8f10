// Shared-nothing verifier cluster with consistent-hash routing and live
// shard handoff: the verifier's only sharding layer.
//
// The cluster scales across *shards that can join and leave*, which is
// what a deployment actually resizes. Each cluster shard is a complete
// vertical slice -- its own svc::VerifierService (one worker thread)
// wrapping its own sp::ServiceProvider, bounded SessionTable /
// ReplayCache / SubmitDedup, and metrics registry -- so shards share no
// protocol state at all and the single-threaded SP correctness argument
// carries over verbatim. A ConsistentHashRouter gives every client a
// stable home shard and bounds resize churn to ~K/N keys (see
// consistent_hash.h).
//
// Rebalance is stop-the-world and state-preserving. add_shard():
//
//   1. Mark the rebalance active: new submits are *parked* (their
//      promises retained) instead of blocking or failing.
//   2. drain() every member service -- queued frames finish on their
//      old owner, which is equivalent to re-routing them (they are
//      processed exactly once, against pre-move state).
//   3. For every (source, destination) pair whose ownership changes
//      under the next ring, extract_for_handoff() pulls the moving
//      clients' sessions, attestation keys, dedup rows and the source's
//      replay digests into a store::ShardState; import_state() replays
//      it into the destination with deadlines, cached responses and
//      exactly-once guards intact, rebuilding each moved client's verify
//      context from its key.
//   4. Swap the ring, restart every service, then re-route the parked
//      frames through the new ring (their futures resolve exactly once).
//
// A client mid-exchange therefore survives its shard changing: a settled
// transaction's retransmit still replays the cached response on the new
// owner (no double-execution), a half-open challenge can still be
// completed there, and a replayed signature is still screened. The
// cluster chaos test drives all of this under ~26% fault injection.
//
// Durable mode adds a crash story on top. With a
// durable_backend_factory set, every shard id owns a StorageBackend +
// DurableLog that the *cluster* keeps across member incarnations: the
// shard's SP journals each settled mutation before replying (the
// write-ahead contract in src/store), kill_shard() arms a torn-write
// process death at an arbitrary journal offset, and restart_shard()
// rebuilds the member from snapshot + journal -- acked state survives,
// retransmits replay byte-identical cached responses, and exactly-once
// holds across process deaths, not just rebalances. Handoff and
// recovery share one state type (store::ShardState) and one import, and
// migrate_to checkpoints durable members after every move: a shard's
// snapshot can never resurrect sessions that were handed off to another
// owner.
//
// Thread-safety: submit()/call()/stats() are safe from any thread,
// including concurrently with add_shard()/remove_shard(). Per-shard
// accessors (shard_service/shard_sp) and publish_gauges() follow the
// VerifierService rule: touch SP internals only while the cluster is
// quiesced (the rebalancer publishes gauges itself at every resize).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/consistent_hash.h"
#include "obs/metrics.h"
#include "store/durable_log.h"
#include "store/storage_backend.h"
#include "svc/verifier_service.h"

namespace tp::cluster {

struct ClusterConfig {
  /// Initial shard count (ids 0..num_shards-1). Must be >= 1; the
  /// constructor throws std::invalid_argument on 0.
  std::size_t num_shards = 4;
  /// Template for every member service (each owns its metrics registry,
  /// so per-shard stats stay separable). The SP seed is mixed with the
  /// shard id, and every member gets a disjoint sp.tx_id_base so
  /// transaction ids are globally unique -- a moved confirmation session
  /// can never collide with an id its new owner issued itself.
  svc::SvcConfig svc;
  /// Durable mode: when set, every shard id gets its own StorageBackend
  /// from this factory (called once per id; the cluster owns the result
  /// and keeps it across member incarnations, so a restarted shard
  /// recovers from the journal its predecessor wrote). nullptr (default)
  /// keeps shards in-memory-only -- kill_shard()/restart_shard() then
  /// throw. Any `svc.sp.durable` set on the template is ignored: the
  /// cluster wires each member's log itself.
  std::function<std::unique_ptr<store::StorageBackend>(std::uint32_t)>
      durable_backend_factory;
  /// Per-shard journal size that triggers snapshot compaction
  /// (DurableLogConfig::compact_journal_bytes); 0 disables automatic
  /// compaction. Only meaningful with durable_backend_factory set.
  std::uint64_t compact_journal_bytes = 1u << 20;
};

class VerifierCluster {
 public:
  /// Ring points per shard (consistent_hash.h).
  static constexpr std::size_t kVirtualNodes = 64;

  /// Throws std::invalid_argument when config.num_shards == 0.
  explicit VerifierCluster(ClusterConfig config);
  ~VerifierCluster();

  VerifierCluster(const VerifierCluster&) = delete;
  VerifierCluster& operator=(const VerifierCluster&) = delete;

  /// Starts every member service. Idempotent.
  void start();
  /// Gracefully drains every member service.
  void drain();

  std::size_t num_shards() const;
  /// Member shard ids, ascending (ids are never reused).
  std::vector<std::uint32_t> shard_ids() const;
  std::uint32_t shard_for(std::string_view client_id) const;

  /// Routes the frame to its owner shard's service. During a rebalance
  /// the request is parked and re-routed afterwards; the future always
  /// resolves exactly once either way.
  std::future<svc::SvcResponse> submit(const std::string& client_id,
                                       Bytes frame);
  /// Synchronous convenience: submit and wait.
  svc::SvcResponse call(const std::string& client_id, BytesView frame);

  /// Adds a new shard (id = next unused), migrating the ~K/N keys the
  /// new ring assigns to it. Returns the new shard's id. Stop-the-world:
  /// concurrent submits are parked and replayed through the new ring.
  std::uint32_t add_shard();
  /// Drains `shard_id` out of the cluster, migrating every key it owns
  /// to the surviving shards. At least one shard must remain (throws
  /// std::invalid_argument otherwise; unknown ids throw too).
  void remove_shard(std::uint32_t shard_id);

  /// Member access for setup/inspection (quiesced only; see header).
  svc::VerifierService& shard_service(std::uint32_t shard_id);
  sp::ServiceProvider& shard_sp(std::uint32_t shard_id);

  /// Arms a process-death injection on `shard_id`'s storage backend:
  /// the journal append that crosses `at_bytes` (cumulative appended
  /// bytes, the backend's monotone axis -- see
  /// StorageBackend::appended_total) keeps only the prefix below the
  /// mark (a torn write) and kills the shard. Requires durable mode and
  /// a backend with crash-injection support (the in-memory test
  /// backend); throws std::invalid_argument otherwise. Safe while the
  /// cluster is serving.
  void kill_shard(std::uint32_t shard_id, std::uint64_t at_bytes);

  /// True once `shard_id`'s member service died on an armed crash.
  /// A crashed shard rejects everything with kShutdown until
  /// restart_shard() rebuilds it.
  bool shard_crashed(std::uint32_t shard_id);

  /// Rebuilds a (typically crashed) shard from its journal:
  /// stop-the-world like add_shard() -- concurrent submits park -- then
  /// the member service is discarded and reconstructed; its SP recovers
  /// snapshot + journal through the shard's DurableLog, so every
  /// mutation the dead incarnation acked survives and every retransmit
  /// replays its cached response byte-identically. The ring is
  /// unchanged (same id, same ownership). Parked frames are re-routed
  /// afterwards. Bumps cluster.shard_restarts. Requires durable mode.
  void restart_shard(std::uint32_t shard_id);

  /// The storage backend owned for `shard_id` (durable mode only;
  /// throws std::invalid_argument otherwise). The backend is
  /// thread-safe; tests read appended_total() to aim kill_shard().
  store::StorageBackend& shard_backend(std::uint32_t shard_id);

  /// Protocol stats aggregated across members (safe while running:
  /// member registries are atomic).
  sp::SpStats stats() const;

  /// Refreshes the per-shard gauges
  /// (cluster.shard.<id>.{accepts,sessions,queue_depth,memory_bytes}).
  /// Call quiesced, or let the rebalancer do it.
  void publish_gauges();

  /// Cluster-level registry (router counters + per-shard gauges).
  obs::Registry& metrics() { return registry_; }

  /// Enrolled clients whose owner changed across all resizes.
  std::uint64_t remapped_keys() const { return c_remapped_keys_->value(); }
  /// Live sessions moved by handoff across all resizes.
  std::uint64_t handoff_sessions() const {
    return c_handoff_sessions_->value();
  }
  /// Replay-cache digests copied by handoff across all resizes.
  std::uint64_t handoff_replay_keys() const {
    return c_handoff_replay_keys_->value();
  }
  /// Frames parked (and re-routed) during rebalances.
  std::uint64_t parked_frames() const { return c_parked_frames_->value(); }
  /// Crash-restart cycles performed by restart_shard().
  std::uint64_t shard_restarts() const { return c_shard_restarts_->value(); }

 private:
  struct Member {
    std::uint32_t id = 0;
    std::unique_ptr<svc::VerifierService> service;
  };

  struct ParkedFrame {
    std::string client_id;
    Bytes frame;
    std::promise<svc::SvcResponse> promise;
  };

  /// Non-const: durable mode lazily creates the id's backend + log.
  std::unique_ptr<Member> make_member(std::uint32_t id);
  /// The id's DurableLog, created (with its backend) on first use and
  /// kept across member incarnations. nullptr when not durable.
  store::DurableLog* log_for(std::uint32_t id);
  bool durable() const { return bool(config_.durable_backend_factory); }
  Member& member(std::uint32_t id);
  const Member& member(std::uint32_t id) const;
  /// Moves every key that `next` assigns to a different member than
  /// `router_` does. Caller holds mu_ exclusively with all services
  /// drained; counters are bumped here.
  void migrate_to(const ConsistentHashRouter& next);
  void set_rebalance_active(bool active);
  void replay_parked(std::vector<ParkedFrame> parked);
  void publish_gauges_locked();

  ClusterConfig config_;
  /// Shared t=0 for every member's session timeline, so deadlines keep
  /// their meaning when sessions move between shards.
  std::chrono::steady_clock::time_point epoch_;
  obs::Registry registry_;

  /// Guards router_ + members_: shared for routing/submitting, exclusive
  /// for resizes.
  mutable std::shared_mutex mu_;
  /// Durable-mode storage, keyed by shard id and owned by the cluster
  /// (NOT the member): a member incarnation dies on an injected crash,
  /// but its journal must survive for the next incarnation to recover.
  /// Declared before members_ so destruction runs members (whose SPs
  /// hold raw DurableLog pointers) -> logs -> backends.
  std::unordered_map<std::uint32_t, std::unique_ptr<store::StorageBackend>>
      backends_;
  std::unordered_map<std::uint32_t, std::unique_ptr<store::DurableLog>>
      logs_;

  ConsistentHashRouter router_;
  std::vector<std::unique_ptr<Member>> members_;
  std::uint32_t next_shard_id_ = 0;

  /// Parked-frame protocol: submits that cannot take mu_ shared check
  /// rebalance_active_ under park_mu_ -- if a rebalance is in flight
  /// they park, otherwise they retry the normal path. The rebalancer
  /// clears the flag and collects the parked list under the same lock,
  /// so no frame can slip into a list nobody will replay.
  std::mutex park_mu_;
  std::atomic<bool> rebalance_active_{false};
  std::vector<ParkedFrame> parked_;

  obs::Counter* c_remapped_keys_;
  obs::Counter* c_handoff_sessions_;
  obs::Counter* c_handoff_replay_keys_;
  obs::Counter* c_parked_frames_;
  obs::Counter* c_rebalances_;
  obs::Counter* c_shard_restarts_;
};

}  // namespace tp::cluster
