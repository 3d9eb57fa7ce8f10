// Cluster suite (`ctest -L cluster`): consistent-hash routing and the
// sharded verifier cluster's live-handoff guarantees.
//
// Ring invariants: placement is deterministic across processes and
// construction orders (routing is a contract, not an in-memory
// accident), keys spread near-uniformly, and a resize remaps only the
// ~K/N keys the ring assigns to the joining shard (or away from the
// leaving one) -- never a key between two surviving shards.
//
// Cluster invariants: a client mid-exchange survives its shard changing.
// A challenge issued by the old owner is honoured by the new one, a
// settled transaction's retransmit replays byte-identically on the new
// owner (no double-execution), transaction ids stay globally unique
// across shards, and frames submitted during a rebalance are parked and
// re-routed, never dropped. The chaos member of the suite (also under
// `ctest -L chaos`) drives a full fleet at a ~26% fault rate through a
// 4-shard cluster with a mid-run shard join and leave.
#include "cluster/verifier_cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/consistent_hash.h"
#include "core/messages.h"
#include "pal/human_agent.h"
#include "sp/fleet.h"
#include "sp_frames.h"

namespace tp {
namespace {

using cluster::ClusterConfig;
using cluster::ConsistentHashRouter;
using cluster::VerifierCluster;
using test::confirm_frame;
using test::submit_frame;

// ------------------------------------------------------------------ ring

TEST(ConsistentHash, SpreadsKeysNearUniformly) {
  ConsistentHashRouter router(64);
  for (std::uint32_t s = 0; s < 4; ++s) router.add_shard(s);
  std::vector<std::size_t> hits(4, 0);
  const std::size_t kKeys = 100000;
  for (std::size_t i = 0; i < kKeys; ++i) {
    ++hits[router.shard_for("uniformity-client-" + std::to_string(i))];
  }
  const double mean = static_cast<double>(kKeys) / 4.0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_GT(hits[s], mean * 0.65) << "shard " << s << " starved";
    EXPECT_LT(hits[s], mean * 1.35) << "shard " << s << " overloaded";
  }
}

TEST(ConsistentHash, JoinRemapsOnlyTowardTheNewShardWithinBound) {
  ConsistentHashRouter before(64);
  for (std::uint32_t s = 0; s < 4; ++s) before.add_shard(s);
  ConsistentHashRouter after = before;
  after.add_shard(4);

  const std::size_t kKeys = 100000;
  std::size_t moved = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const std::string id = "remap-client-" + std::to_string(i);
    const std::uint32_t old_owner = before.shard_for(id);
    const std::uint32_t new_owner = after.shard_for(id);
    if (old_owner != new_owner) {
      ++moved;
      // Consistent hashing's defining property: a join only pulls keys
      // to the joining shard, never shuffles them between survivors.
      EXPECT_EQ(new_owner, 4u) << id;
    }
  }
  // Expected move fraction is K/N = 1/5; allow 50% slack for vnode
  // placement variance.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, kKeys / 5 + kKeys / 10);
}

TEST(ConsistentHash, LeaveRemapsOnlyTheLeavingShardsKeys) {
  ConsistentHashRouter before(64);
  for (std::uint32_t s = 0; s < 4; ++s) before.add_shard(s);
  ConsistentHashRouter after = before;
  after.remove_shard(2);

  for (std::size_t i = 0; i < 20000; ++i) {
    const std::string id = "leave-client-" + std::to_string(i);
    const std::uint32_t old_owner = before.shard_for(id);
    const std::uint32_t new_owner = after.shard_for(id);
    if (old_owner != 2) {
      EXPECT_EQ(new_owner, old_owner) << id << " moved between survivors";
    } else {
      EXPECT_NE(new_owner, 2u) << id;
    }
  }
}

TEST(ConsistentHash, PlacementIsDeterministicAcrossInstancesAndAddOrder) {
  // Routing must survive a process restart: two routers built
  // independently -- in different add orders -- agree on every key.
  ConsistentHashRouter forward(64);
  for (std::uint32_t s = 0; s < 4; ++s) forward.add_shard(s);
  ConsistentHashRouter reverse(64);
  for (std::int32_t s = 3; s >= 0; --s) {
    reverse.add_shard(static_cast<std::uint32_t>(s));
  }
  for (std::size_t i = 0; i < 1000; ++i) {
    const std::string id = "restart-client-" + std::to_string(i);
    EXPECT_EQ(forward.shard_for(id), reverse.shard_for(id)) << id;
  }
  // Golden placements: these literals pin the on-the-wire routing
  // contract -- a hash or fold change that silently re-homes every
  // client fails here, not in production.
  EXPECT_EQ(forward.shard_for("client-0"), 2u);
  EXPECT_EQ(forward.shard_for("client-1"), 3u);
  EXPECT_EQ(forward.shard_for("alice"), 3u);
  EXPECT_EQ(forward.shard_for("bob"), 0u);
  EXPECT_EQ(forward.shard_for("f11-client-42"), 1u);
}

TEST(ConsistentHash, ReAddingAShardRestoresItsPlacement) {
  ConsistentHashRouter router(64);
  for (std::uint32_t s = 0; s < 4; ++s) router.add_shard(s);
  std::vector<std::uint32_t> owners;
  for (std::size_t i = 0; i < 500; ++i) {
    owners.push_back(router.shard_for("cycle-client-" + std::to_string(i)));
  }
  router.remove_shard(1);
  router.add_shard(1);
  for (std::size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(router.shard_for("cycle-client-" + std::to_string(i)),
              owners[i]);
  }
}

// --------------------------------------------------------------- cluster

/// Raw-frame cluster: trusted-path checks off, so tests can drive
/// TxSubmit/TxConfirm exchanges without enrolling simulated platforms.
ClusterConfig raw_cluster_config(std::size_t shards) {
  ClusterConfig cc;
  cc.num_shards = shards;
  cc.svc.queue_depth = 256;
  cc.svc.sp.require_trusted_path = false;
  return cc;
}

std::uint64_t challenge_tx_id(const svc::SvcResponse& response) {
  EXPECT_EQ(response.status, svc::SvcStatus::kOk);
  return test::challenge_tx_id(response.frame);
}

bool result_accepted(const svc::SvcResponse& response) {
  return response.status == svc::SvcStatus::kOk &&
         test::result_accepted(response.frame);
}

TEST(VerifierCluster, ConfigValidation) {
  ClusterConfig zero;
  zero.num_shards = 0;
  EXPECT_THROW(VerifierCluster{zero}, std::invalid_argument);

  VerifierCluster cluster(raw_cluster_config(1));
  EXPECT_THROW(cluster.remove_shard(0), std::invalid_argument);  // last
  EXPECT_THROW(cluster.remove_shard(7), std::invalid_argument);  // unknown
}

TEST(VerifierCluster, TransactionIdsAreGloballyUniqueAcrossShards) {
  VerifierCluster cluster(raw_cluster_config(4));
  cluster.start();
  std::set<std::uint64_t> tx_ids;
  for (int i = 0; i < 64; ++i) {
    const std::string id = "txid-client-" + std::to_string(i);
    const auto tx_id =
        challenge_tx_id(cluster.call(id, submit_frame(id, "pay 1")));
    EXPECT_TRUE(tx_ids.insert(tx_id).second)
        << "tx id " << tx_id << " issued twice";
  }
  // Distinct per-shard id spaces, not luck: ids from different shards
  // differ in their high bits.
  std::set<std::uint64_t> bases;
  for (const std::uint64_t tx_id : tx_ids) bases.insert(tx_id >> 40);
  EXPECT_EQ(bases.size(), 4u);
  cluster.drain();
}

TEST(VerifierCluster, HalfOpenExchangeSurvivesShardJoin) {
  // Challenge issued by the old owner, confirmation delivered to the new
  // one: the moved session must complete there, exactly once.
  VerifierCluster cluster(raw_cluster_config(4));
  cluster.start();

  const int kClients = 32;
  std::vector<std::string> ids;
  std::vector<std::uint64_t> tx_ids;
  std::vector<std::uint32_t> old_owner;
  for (int i = 0; i < kClients; ++i) {
    ids.push_back("cluster-client-" + std::to_string(i));
    tx_ids.push_back(
        challenge_tx_id(cluster.call(ids[i], submit_frame(ids[i], "pay"))));
    old_owner.push_back(cluster.shard_for(ids[i]));
  }

  const std::uint32_t joined = cluster.add_shard();
  // The probe'd ring moves 7 of these 32 ids to shard 4; handoff must
  // have carried their live sessions.
  EXPECT_GT(cluster.handoff_sessions(), 0u);
  bool some_moved = false;
  for (int i = 0; i < kClients; ++i) {
    if (cluster.shard_for(ids[i]) != old_owner[i]) {
      some_moved = true;
      EXPECT_EQ(cluster.shard_for(ids[i]), joined);
    }
  }
  ASSERT_TRUE(some_moved);

  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(
        result_accepted(cluster.call(ids[i], confirm_frame(ids[i], tx_ids[i]))))
        << ids[i];
  }
  EXPECT_EQ(cluster.stats().tx_accepted,
            static_cast<std::uint64_t>(kClients));
  cluster.drain();
}

TEST(VerifierCluster, SettledExchangeReplaysByteIdenticallyAfterJoin) {
  // No double-confirm across a failover: a retransmit that lands on the
  // NEW owner of a settled session must replay the cached response
  // byte-for-byte, not re-execute.
  VerifierCluster cluster(raw_cluster_config(4));
  cluster.start();

  const int kClients = 32;
  std::vector<std::string> ids;
  std::vector<Bytes> confirms;
  std::vector<Bytes> responses;
  std::vector<std::uint32_t> old_owner;
  for (int i = 0; i < kClients; ++i) {
    ids.push_back("cluster-client-" + std::to_string(i));
    const auto tx_id =
        challenge_tx_id(cluster.call(ids[i], submit_frame(ids[i], "pay")));
    confirms.push_back(confirm_frame(ids[i], tx_id));
    const auto response = cluster.call(ids[i], confirms[i]);
    EXPECT_TRUE(result_accepted(response));
    responses.push_back(response.frame);
    old_owner.push_back(cluster.shard_for(ids[i]));
  }
  ASSERT_EQ(cluster.stats().tx_accepted,
            static_cast<std::uint64_t>(kClients));

  cluster.add_shard();
  bool some_moved = false;
  for (int i = 0; i < kClients; ++i) {
    some_moved |= cluster.shard_for(ids[i]) != old_owner[i];
    const auto replay = cluster.call(ids[i], confirms[i]);
    EXPECT_EQ(replay.status, svc::SvcStatus::kOk);
    EXPECT_EQ(replay.frame, responses[i])
        << ids[i] << ": replay not byte-identical";
  }
  ASSERT_TRUE(some_moved);
  // Replayed, not re-executed.
  EXPECT_EQ(cluster.stats().tx_accepted,
            static_cast<std::uint64_t>(kClients));
  cluster.drain();
}

TEST(VerifierCluster, SubmitsDuringRebalanceAreParkedNeverDropped) {
  VerifierCluster cluster(raw_cluster_config(2));
  cluster.start();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sent{0}, served{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < 3; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const std::string id =
            "park-client-" + std::to_string(t) + "-" + std::to_string(i);
        sent.fetch_add(1, std::memory_order_relaxed);
        const auto response = cluster.call(id, submit_frame(id, "pay"));
        // Every future resolves with a served response: a parked frame
        // is re-routed after the resize, never dropped or failed.
        EXPECT_EQ(response.status, svc::SvcStatus::kOk);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::uint32_t added = 0;
  for (int resize = 0; resize < 3; ++resize) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    added = cluster.add_shard();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  cluster.remove_shard(added);
  stop.store(true);
  for (auto& p : producers) p.join();

  EXPECT_EQ(sent.load(), served.load());
  EXPECT_GT(sent.load(), 0u);
  EXPECT_EQ(cluster.num_shards(), 4u);
  cluster.drain();
}

TEST(VerifierCluster, AggregatesProtocolStatsAcrossShards) {
  VerifierCluster cluster(raw_cluster_config(4));
  cluster.start();
  // Confirmations for transactions nobody submitted: every shard rejects.
  for (int i = 0; i < 20; ++i) {
    const std::string id = "ghost-" + std::to_string(i);
    const svc::SvcResponse response = cluster.call(
        id, confirm_frame(id, 9000 + static_cast<std::uint64_t>(i)));
    ASSERT_EQ(response.status, svc::SvcStatus::kOk);
  }
  cluster.drain();
  const sp::SpStats stats = cluster.stats();
  EXPECT_EQ(stats.tx_rejected, 20u);
  EXPECT_EQ(stats.tx_accepted, 0u);
  EXPECT_EQ(stats.rejects(proto::RejectCode::kUnknownTx), 20u);
  // More than one shard actually saw traffic.
  std::size_t shards_with_traffic = 0;
  std::uint32_t busy_shard = 0;
  for (const std::uint32_t id : cluster.shard_ids()) {
    if (cluster.shard_sp(id).stats().tx_rejected > 0) {
      ++shards_with_traffic;
      busy_shard = id;
    }
  }
  EXPECT_GT(shards_with_traffic, 1u);

  // A shard that saw traffic leaves: the cluster keeps its books.
  ASSERT_GT(cluster.shard_sp(busy_shard).stats().tx_rejected, 0u);
  cluster.remove_shard(busy_shard);
  const sp::SpStats after = cluster.stats();
  EXPECT_EQ(after.tx_rejected, 20u);
  EXPECT_EQ(after.rejects(proto::RejectCode::kUnknownTx), 20u);
}

TEST(VerifierCluster, PublishesPerShardGaugesAndRouterCounters) {
  VerifierCluster cluster(raw_cluster_config(2));
  cluster.start();
  for (int i = 0; i < 16; ++i) {
    const std::string id = "gauge-client-" + std::to_string(i);
    const auto tx_id =
        challenge_tx_id(cluster.call(id, submit_frame(id, "pay")));
    EXPECT_TRUE(result_accepted(cluster.call(id, confirm_frame(id, tx_id))));
  }
  cluster.add_shard();
  cluster.drain();
  cluster.publish_gauges();

  const std::string json = cluster.metrics().to_json();
  for (const char* name :
       {"cluster.shard.0.accepts", "cluster.shard.0.memory_bytes",
        "cluster.shard.1.queue_depth", "cluster.shard.2.sessions",
        "cluster.remapped_keys", "cluster.handoff_sessions",
        "cluster.rebalances"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  // Every shard's bounded-table footprint is nonzero and identical (the
  // tables are sized by config, not population -- the flat-memory claim).
  std::int64_t first = -1;
  for (const auto& g : cluster.metrics().gauges()) {
    if (g.name.find(".memory_bytes") == std::string::npos) continue;
    EXPECT_GT(g.value, 0);
    if (first < 0) first = g.value;
    EXPECT_EQ(g.value, first);
  }
  cluster.drain();
}

// ----------------------------------------------------------------- chaos

TEST(ClusterChaos, FleetConfirmsExactlyOnceThroughRebalancingCluster) {
  // The PR 5 chaos exchange pointed at a 4-shard cluster: every frame of
  // a real fleet (TPM quotes, PAL sessions, RSA confirmation signatures)
  // crosses a link dropping/duplicating/reordering ~26% of messages in
  // each direction, while a fifth shard joins mid-run and leaves again a
  // round later. The client-side and cluster-side accept counts must
  // agree exactly -- retransmits and the handoffs may never
  // double-execute a payment -- and every handoff must move enrolled
  // clients without counting them again.
  sp::FleetConfig fleet_config;
  fleet_config.num_clients = 8;
  fleet_config.seed = bytes_of("cluster-chaos");
  fleet_config.tpm_key_bits = 768;
  fleet_config.client_key_bits = 768;
  // Pinned seed (see chaos_test.cpp): the all-accepted assertion depends
  // on the sampled fault sequence.
  net::FaultProfile profile;
  profile.drop_prob = 0.13;
  profile.dup_prob = 0.08;
  profile.reorder_prob = 0.05;
  fleet_config.net.fault = net::FaultPlan::symmetric(profile, 0xc1a05ull);
  fleet_config.client_retry.max_attempts = 16;
  fleet_config.client_retry.backoff_base = SimDuration::millis(50);
  sp::Fleet fleet(fleet_config);

  ClusterConfig cc;
  cc.num_shards = 4;
  cc.svc.queue_depth = 64;
  cc.svc.default_deadline = std::chrono::milliseconds(2000);
  cc.svc.sp = fleet.sp_config();
  VerifierCluster cluster(cc);
  cluster.start();
  fleet.route_frames_to([&cluster](const std::string& id, BytesView frame) {
    return cluster.call(id, frame).frame;
  });

  std::vector<std::unique_ptr<pal::HumanAgent>> users;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    auto agent = std::make_unique<pal::HumanAgent>(
        devices::HumanModel(devices::HumanParams{}, SimRng(9000 + i)), "");
    fleet.client(i).set_user_agent(agent.get());
    users.push_back(std::move(agent));
  }
  ASSERT_EQ(fleet.enroll_all(), fleet.size());

  // Each client is resident on exactly one shard and counted as enrolled
  // exactly once, however often it moved.
  const auto expect_enrolled_once = [&](const std::string& when) {
    EXPECT_EQ(cluster.stats().enrolled, fleet.size()) << when;
    std::size_t resident = 0;
    for (const std::uint32_t id : cluster.shard_ids()) {
      resident += cluster.shard_sp(id).enrolled_count();
    }
    EXPECT_EQ(resident, fleet.size()) << when;
  };

  std::uint64_t client_accepts = 0;
  std::uint32_t joined = 0;
  std::uint64_t faults = 0;
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      const std::string summary =
          "pay " + std::to_string(round) + " by " + fleet.client_id(i);
      users[i]->set_intended_summary(summary);
      auto outcome = fleet.client(i).submit_transaction(
          summary, bytes_of("order " + std::to_string(round)));
      ASSERT_TRUE(outcome.ok())
          << fleet.client_id(i) << ": " << outcome.error().message;
      if (outcome.value().accepted) ++client_accepts;
    }
    if (round == 0) {
      // Live resize mid-run, with enrolled clients and replay/dedup
      // state in flight.
      joined = cluster.add_shard();
      EXPECT_GT(cluster.remapped_keys(), 0u);
      expect_enrolled_once("after the join");
    }
    if (round == 1) {
      // And the joined shard leaves again: its clients move back.
      const std::uint64_t remapped = cluster.remapped_keys();
      cluster.remove_shard(joined);
      EXPECT_GT(cluster.remapped_keys(), remapped);
      expect_enrolled_once("after the leave");
    }
  }
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    faults += fleet.link(i).faults()->injected_total();
    EXPECT_EQ(fleet.client(i).exchange_give_ups(), 0u) << fleet.client_id(i);
  }
  EXPECT_GT(faults, 0u);
  EXPECT_EQ(client_accepts, fleet.size() * 3);

  // Zero double-execution: what the clients counted is exactly what the
  // cluster executed, retransmits, handoffs and the departed shard's
  // accepts included.
  EXPECT_EQ(cluster.stats().tx_accepted, client_accepts);
  cluster.drain();
}

}  // namespace
}  // namespace tp
