#include "cluster/verifier_cluster.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "util/log.h"

namespace tp::cluster {

namespace {

using Clock = std::chrono::steady_clock;

ClusterConfig validated(ClusterConfig config) {
  if (config.num_shards == 0) {
    throw std::invalid_argument(
        "ClusterConfig::num_shards must be >= 1 (a cluster with no shards "
        "cannot own any client)");
  }
  return config;
}

}  // namespace

VerifierCluster::VerifierCluster(ClusterConfig config)
    : config_(validated(std::move(config))),
      epoch_(Clock::now()),
      router_(kVirtualNodes) {
  c_remapped_keys_ = &registry_.counter("cluster.remapped_keys");
  c_handoff_sessions_ = &registry_.counter("cluster.handoff_sessions");
  c_handoff_replay_keys_ = &registry_.counter("cluster.handoff_replay_keys");
  c_parked_frames_ = &registry_.counter("cluster.parked_frames");
  c_rebalances_ = &registry_.counter("cluster.rebalances");
  c_shard_restarts_ = &registry_.counter("cluster.shard_restarts");

  members_.reserve(config_.num_shards);
  for (std::size_t i = 0; i < config_.num_shards; ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    router_.add_shard(id);
    members_.push_back(make_member(id));
  }
  next_shard_id_ = static_cast<std::uint32_t>(config_.num_shards);
}

VerifierCluster::~VerifierCluster() { drain(); }

store::DurableLog* VerifierCluster::log_for(std::uint32_t id) {
  if (!durable()) return nullptr;
  auto it = logs_.find(id);
  if (it != logs_.end()) return it->second.get();
  auto backend = config_.durable_backend_factory(id);
  if (backend == nullptr) {
    throw std::invalid_argument(
        "ClusterConfig::durable_backend_factory returned nullptr for shard " +
        std::to_string(id));
  }
  store::DurableLogConfig log_config;
  log_config.backend = backend.get();
  log_config.compact_journal_bytes = config_.compact_journal_bytes;
  auto log = std::make_unique<store::DurableLog>(log_config);
  store::DurableLog* raw = log.get();
  backends_.emplace(id, std::move(backend));
  logs_.emplace(id, std::move(log));
  return raw;
}

std::unique_ptr<VerifierCluster::Member> VerifierCluster::make_member(
    std::uint32_t id) {
  auto member = std::make_unique<Member>();
  member->id = id;
  svc::SvcConfig svc_config = config_.svc;
  // Shared timeline: a deadline exported by one shard means the same
  // instant on every other.
  svc_config.epoch = epoch_;
  // Distinct nonce stream per shard.
  svc_config.sp.seed = concat(
      svc_config.sp.seed, bytes_of(":cluster-shard" + std::to_string(id)));
  // Disjoint tx-id spaces (2^40 ids each): a confirmation session moved
  // by handoff can never collide with an id its new owner issues.
  svc_config.sp.tx_id_base = (static_cast<std::uint64_t>(id) + 1) << 40;
  // Durable mode: wire this id's cluster-owned DurableLog in (the SP
  // constructor recovers snapshot + journal through it, which is what
  // makes restart_shard a rebuild rather than a state loss). Overrides
  // whatever the template carried -- one log must never serve two SPs.
  svc_config.sp.durable = log_for(id);
  member->service =
      std::make_unique<svc::VerifierService>(std::move(svc_config));
  return member;
}

VerifierCluster::Member& VerifierCluster::member(std::uint32_t id) {
  for (auto& m : members_) {
    if (m->id == id) return *m;
  }
  throw std::invalid_argument("unknown cluster shard id " +
                              std::to_string(id));
}

const VerifierCluster::Member& VerifierCluster::member(
    std::uint32_t id) const {
  for (const auto& m : members_) {
    if (m->id == id) return *m;
  }
  throw std::invalid_argument("unknown cluster shard id " +
                              std::to_string(id));
}

void VerifierCluster::start() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& m : members_) m->service->start();
}

void VerifierCluster::drain() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& m : members_) m->service->drain();
}

std::size_t VerifierCluster::num_shards() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return members_.size();
}

std::vector<std::uint32_t> VerifierCluster::shard_ids() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return router_.shard_ids();
}

std::uint32_t VerifierCluster::shard_for(std::string_view client_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return router_.shard_for(client_id);
}

svc::VerifierService& VerifierCluster::shard_service(std::uint32_t shard_id) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return *member(shard_id).service;
}

sp::ServiceProvider& VerifierCluster::shard_sp(std::uint32_t shard_id) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return member(shard_id).service->sp();
}

std::future<svc::SvcResponse> VerifierCluster::submit(
    const std::string& client_id, Bytes frame) {
  for (;;) {
    {
      std::shared_lock<std::shared_mutex> lock(mu_, std::try_to_lock);
      if (lock.owns_lock()) {
        return member(router_.shard_for(client_id))
            .service->submit(std::move(frame));
      }
    }
    // Router locked exclusively: a rebalance is (probably) in flight.
    // Park the frame under park_mu_ -- the rebalancer collects the list
    // under the same lock before clearing the flag, so a parked frame is
    // always replayed. If the flag is already clear the rebalance just
    // ended (or the try-lock failed spuriously); retry the normal path.
    {
      std::lock_guard<std::mutex> g(park_mu_);
      if (rebalance_active_.load(std::memory_order_acquire)) {
        ParkedFrame parked;
        parked.client_id = client_id;
        parked.frame = std::move(frame);
        std::future<svc::SvcResponse> future = parked.promise.get_future();
        parked_.push_back(std::move(parked));
        c_parked_frames_->inc();
        return future;
      }
    }
    std::this_thread::yield();
  }
}

svc::SvcResponse VerifierCluster::call(const std::string& client_id,
                                       BytesView frame) {
  return submit(client_id, Bytes(frame.begin(), frame.end())).get();
}

void VerifierCluster::set_rebalance_active(bool active) {
  std::lock_guard<std::mutex> g(park_mu_);
  rebalance_active_.store(active, std::memory_order_release);
}

void VerifierCluster::migrate_to(const ConsistentHashRouter& next) {
  std::uint64_t remapped = 0;
  std::uint64_t sessions = 0;
  std::uint64_t replay = 0;
  for (auto& src : members_) {
    for (auto& dst : members_) {
      if (src->id == dst->id || !next.has_shard(dst->id)) continue;
      store::ShardState moved = src->service->sp().extract_for_handoff(
          [&](const proto::SessionTable::Key& key) {
            return next.shard_for_point(
                       ConsistentHashRouter::point_of_key(key)) == dst->id;
          });
      const std::size_t moved_sessions =
          moved.enroll_sessions.size() + moved.tx_sessions.size();
      // Nothing of this source's moved to this destination: skip the
      // import (it would only copy the replay-digest superset around).
      if (moved.enrolled.empty() && moved_sessions == 0 &&
          moved.dedup.empty()) {
        continue;
      }
      remapped += moved.enrolled.size();
      sessions += moved_sessions;
      replay += moved.replay_digests.size();
      dst->service->sp().import_state(std::move(moved));
    }
  }
  c_remapped_keys_->inc(remapped);
  c_handoff_sessions_->inc(sessions);
  c_handoff_replay_keys_->inc(replay);

  if (durable()) {
    // Handoff mutated members outside the journaled frame path. While
    // everything is still drained, snapshot each member so no shard's
    // stale journal can resurrect sessions its SP just handed off (or
    // miss the ones it just imported).
    for (auto& m : members_) m->service->sp().checkpoint();
  }
}

void VerifierCluster::kill_shard(std::uint32_t shard_id,
                                 std::uint64_t at_bytes) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = backends_.find(shard_id);
  if (it == backends_.end()) {
    throw std::invalid_argument(
        "kill_shard: shard " + std::to_string(shard_id) +
        " has no durable backend (durable mode off, or unknown id)");
  }
  if (!it->second->supports_crash_injection()) {
    throw std::invalid_argument(
        "kill_shard: shard " + std::to_string(shard_id) +
        "'s storage backend does not support crash injection");
  }
  it->second->crash_at_bytes(at_bytes);
}

bool VerifierCluster::shard_crashed(std::uint32_t shard_id) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return member(shard_id).service->crashed();
}

store::StorageBackend& VerifierCluster::shard_backend(
    std::uint32_t shard_id) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = backends_.find(shard_id);
  if (it == backends_.end()) {
    throw std::invalid_argument(
        "shard " + std::to_string(shard_id) +
        " has no durable backend (durable mode off, or unknown id)");
  }
  return *it->second;
}

void VerifierCluster::restart_shard(std::uint32_t shard_id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!durable()) {
    throw std::invalid_argument(
        "restart_shard requires durable mode (set "
        "ClusterConfig::durable_backend_factory)");
  }
  member(shard_id);  // unknown ids throw before we stop the world
  set_rebalance_active(true);
  // Live shards finish their queues normally; a crashed shard's worker
  // fails its remainder with kShutdown (those senders retry and land in
  // the parked list or on the rebuilt shard).
  for (auto& m : members_) m->service->drain();

  auto backend_it = backends_.find(shard_id);
  if (backend_it != backends_.end() &&
      backend_it->second->supports_crash_injection()) {
    backend_it->second->clear_crash_point();
  }
  for (auto& m : members_) {
    if (m->id != shard_id) continue;
    // Destroy before rebuilding: one DurableLog serves one SP, and the
    // fresh SP's constructor recovers snapshot + journal through it.
    m.reset();
    m = make_member(shard_id);
    break;
  }

  for (auto& m : members_) m->service->start();
  c_shard_restarts_->inc();
  publish_gauges_locked();
  TP_LOG(kInfo, "cluster")
      << "shard " << shard_id << " restarted from its journal ("
      << c_shard_restarts_->value() << " restarts so far)";

  std::vector<ParkedFrame> parked;
  {
    std::lock_guard<std::mutex> g(park_mu_);
    rebalance_active_.store(false, std::memory_order_release);
    parked.swap(parked_);
  }
  lock.unlock();
  replay_parked(std::move(parked));
}

std::uint32_t VerifierCluster::add_shard() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  set_rebalance_active(true);
  // Queued frames finish on their old owner against pre-move state --
  // processed exactly once, equivalent to re-routing them.
  for (auto& m : members_) m->service->drain();

  const std::uint32_t id = next_shard_id_++;
  ConsistentHashRouter next = router_;
  next.add_shard(id);
  members_.push_back(make_member(id));
  migrate_to(next);
  router_ = std::move(next);

  for (auto& m : members_) m->service->start();
  c_rebalances_->inc();
  publish_gauges_locked();
  TP_LOG(kInfo, "cluster") << "shard " << id << " joined ("
                           << members_.size() << " shards, "
                           << c_handoff_sessions_->value()
                           << " sessions handed off so far)";

  std::vector<ParkedFrame> parked;
  {
    std::lock_guard<std::mutex> g(park_mu_);
    rebalance_active_.store(false, std::memory_order_release);
    parked.swap(parked_);
  }
  lock.unlock();
  replay_parked(std::move(parked));
  return id;
}

void VerifierCluster::remove_shard(std::uint32_t shard_id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!router_.has_shard(shard_id)) {
    throw std::invalid_argument("unknown cluster shard id " +
                                std::to_string(shard_id));
  }
  if (router_.num_shards() == 1) {
    throw std::invalid_argument(
        "cannot remove the last cluster shard (its clients would have no "
        "owner)");
  }
  set_rebalance_active(true);
  for (auto& m : members_) m->service->drain();

  ConsistentHashRouter next = router_;
  next.remove_shard(shard_id);
  migrate_to(next);
  router_ = std::move(next);
  const auto departing =
      std::find_if(members_.begin(), members_.end(),
                   [shard_id](const std::unique_ptr<Member>& m) {
                     return m->id == shard_id;
                   });
  // Its clients moved without their history (a handoff bumps no
  // counter), so the cluster keeps the departing shard's books.
  retired_stats_ += (*departing)->service->stats();
  members_.erase(departing);
  // Shard ids are never reused, so the departed id's storage is dead
  // weight (migrate_to just checkpointed its emptied state). The member
  // (and its SP, which held the log pointer) is already destroyed.
  logs_.erase(shard_id);
  backends_.erase(shard_id);

  for (auto& m : members_) m->service->start();
  c_rebalances_->inc();
  publish_gauges_locked();
  TP_LOG(kInfo, "cluster") << "shard " << shard_id << " left ("
                           << members_.size() << " shards remain)";

  std::vector<ParkedFrame> parked;
  {
    std::lock_guard<std::mutex> g(park_mu_);
    rebalance_active_.store(false, std::memory_order_release);
    parked.swap(parked_);
  }
  lock.unlock();
  replay_parked(std::move(parked));
}

void VerifierCluster::replay_parked(std::vector<ParkedFrame> parked) {
  for (ParkedFrame& p : parked) {
    std::shared_lock<std::shared_mutex> lock(mu_);
    member(router_.shard_for(p.client_id))
        .service->submit_with_promise(std::move(p.frame),
                                      std::move(p.promise));
  }
}

sp::SpStats VerifierCluster::stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  sp::SpStats total = retired_stats_;
  for (const auto& m : members_) total += m->service->stats();
  return total;
}

void VerifierCluster::publish_gauges() {
  std::shared_lock<std::shared_mutex> lock(mu_);
  publish_gauges_locked();
}

void VerifierCluster::publish_gauges_locked() {
  for (const auto& m : members_) {
    sp::ServiceProvider& sp = m->service->sp();
    const std::string prefix = "cluster.shard." + std::to_string(m->id);
    registry_.gauge(prefix + ".accepts")
        .set(static_cast<std::int64_t>(m->service->stats().tx_accepted));
    registry_.gauge(prefix + ".sessions")
        .set(static_cast<std::int64_t>(sp.session_table_occupancy()));
    registry_.gauge(prefix + ".enrolled")
        .set(static_cast<std::int64_t>(sp.enrolled_count()));
    registry_.gauge(prefix + ".queue_depth")
        .set(static_cast<std::int64_t>(m->service->queued()));
    registry_.gauge(prefix + ".memory_bytes")
        .set(static_cast<std::int64_t>(sp.memory_bytes()));
  }
}

}  // namespace tp::cluster
