// Bounded replay cache: data-structure invariants (O(1) membership,
// FIFO eviction, fixed memory) and the SP-level guarantee that replacing
// the unbounded std::set did not open a replay window.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/trusted_path_pal.h"
#include "pal/human_agent.h"
#include "sp/deployment.h"
#include "sp/replay_cache.h"
#include "sp_frames.h"

namespace tp::sp {
namespace {

Bytes sig_of(int i) { return bytes_of("signature-" + std::to_string(i)); }

// ----------------------------------------------------- data structure

TEST(ReplayCache, MembershipAndDuplicateInsert) {
  ReplayCache cache(16);
  EXPECT_FALSE(cache.contains(sig_of(1)));
  EXPECT_TRUE(cache.insert(sig_of(1)));
  EXPECT_TRUE(cache.contains(sig_of(1)));
  EXPECT_FALSE(cache.insert(sig_of(1)));  // duplicate: no-op
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ReplayCache, SizeNeverExceedsCapacityAndMemoryIsFixed) {
  ReplayCache cache(64);
  const std::size_t baseline = cache.memory_bytes();
  for (int i = 0; i < 10000; ++i) {
    cache.insert(sig_of(i));
    ASSERT_LE(cache.size(), 64u);
  }
  EXPECT_EQ(cache.size(), 64u);
  // All storage is allocated up front; churn must not grow it.
  EXPECT_EQ(cache.memory_bytes(), baseline);
}

TEST(ReplayCache, EvictionIsStrictlyFifo) {
  ReplayCache cache(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(cache.insert(sig_of(i)));
  // Inserting 4 more evicts exactly the 4 oldest, in order.
  for (int i = 8; i < 12; ++i) EXPECT_TRUE(cache.insert(sig_of(i)));
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(cache.contains(sig_of(i)));
  for (int i = 4; i < 12; ++i) EXPECT_TRUE(cache.contains(sig_of(i)));
}

TEST(ReplayCache, HeavyChurnKeepsProbeTableConsistent) {
  // Backward-shift deletion stress: every eviction rearranges probe
  // chains; membership of the newest `capacity` entries must stay exact.
  ReplayCache cache(32);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(cache.insert(sig_of(i)));
    // The newest min(i+1, 32) signatures are present, the one just
    // beyond the window is not.
    EXPECT_TRUE(cache.contains(sig_of(i)));
    if (i >= 32) {
      EXPECT_TRUE(cache.contains(sig_of(i - 31)));
      EXPECT_FALSE(cache.contains(sig_of(i - 32)));
    }
  }
}

TEST(ReplayCache, CapacityZeroClampsToOne) {
  ReplayCache cache(0);
  EXPECT_EQ(cache.capacity(), 1u);
  EXPECT_TRUE(cache.insert(sig_of(1)));
  EXPECT_TRUE(cache.insert(sig_of(2)));
  EXPECT_FALSE(cache.contains(sig_of(1)));
  EXPECT_TRUE(cache.contains(sig_of(2)));
}

// ----------------------------------------------------- SP integration

devices::HumanParams perfect_human() {
  devices::HumanParams p;
  p.typo_prob = 0.0;
  p.attention = 1.0;
  return p;
}

TEST(SpReplayBound, MemoryBoundedAndWindowedReplayStillRejected) {
  DeploymentConfig cfg;
  cfg.client_id = "alice";
  cfg.seed = bytes_of("replay-bound");
  cfg.tpm_key_bits = 768;
  cfg.client_key_bits = 768;
  cfg.replay_cache_capacity = 8;  // tiny, to force eviction
  Deployment world(cfg);
  pal::HumanAgent agent(devices::HumanModel(perfect_human(), SimRng(7)), "");
  world.client().set_user_agent(&agent);
  ASSERT_TRUE(world.client().enroll().ok());

  const std::size_t memory_before = world.sp().replay_cache_memory_bytes();

  // Drive 3x the cache capacity of genuine confirmations through the SP,
  // capturing each accepted TxConfirm for replay attempts.
  std::vector<core::TxConfirm> accepted;
  Bytes last_frame;
  Bytes last_reply;
  for (int i = 0; i < 24; ++i) {
    const std::string summary = "pay " + std::to_string(i);
    agent.set_intended_summary(summary);

    core::TxSubmit submit{"alice", summary, bytes_of("p")};
    const auto challenge = test::begin_transaction(world.sp(), submit);
    core::PalConfirmInput in;
    in.tx_summary = summary;
    in.tx_digest = submit.digest();
    in.nonce = challenge.nonce;
    in.sealed_key = world.client().sealed_key_blob();
    pal::SessionDriver driver(world.platform());
    driver.set_user_agent(&agent);
    auto session = driver.run(core::make_trusted_path_pal(), in.marshal());
    ASSERT_TRUE(session.ok());
    auto out = core::PalConfirmOutput::unmarshal(session.value().output);
    ASSERT_TRUE(out.ok());

    core::TxConfirm confirm{"alice", challenge.tx_id,
                            core::Verdict::kConfirmed,
                            out.value().signature};
    last_frame = core::envelope(core::MsgType::kTxConfirm, confirm.serialize());
    last_reply = world.sp().handle_frame(last_frame);
    ASSERT_TRUE(test::result_accepted(last_reply));
    accepted.push_back(confirm);

    // The cache never outgrows its configured bound.
    ASSERT_LE(world.sp().replay_cache_size(), 8u);
  }
  EXPECT_EQ(world.sp().replay_cache_memory_bytes(), memory_before);

  // A byte-identical retransmit of a confirmation whose session is still
  // held for idempotent replay is answered from the response cache: the
  // same bytes, and no second accept.
  EXPECT_EQ(world.sp().handle_frame(last_frame), last_reply);
  EXPECT_EQ(world.sp().stats().tx_accepted, accepted.size());

  // Once the hold window has passed, straight replays of settled
  // confirmations are all rejected: recent ones may hit either defence
  // layer, and even signatures the cache has evicted die at the one-shot
  // challenge map.
  world.clock().advance(cfg.session_ttl + SimDuration::seconds(1));
  for (const auto& confirm : accepted) {
    EXPECT_FALSE(test::complete_transaction(world.sp(), confirm).accepted);
  }
  EXPECT_EQ(world.sp().stats().tx_accepted, accepted.size());

  // Eviction must never re-admit a signature that is still inside the
  // pending-tx window: open a fresh challenge and present each of the 8
  // most recent signatures (all still cached) against it. The replay
  // cache must fire before signature verification even runs.
  for (std::size_t i = accepted.size() - 8; i < accepted.size(); ++i) {
    core::TxSubmit submit{"alice", "forged", bytes_of("p")};
    const auto challenge = test::begin_transaction(world.sp(), submit);
    core::TxConfirm replay{"alice", challenge.tx_id,
                           core::Verdict::kConfirmed,
                           accepted[i].signature};
    EXPECT_FALSE(test::complete_transaction(world.sp(), replay).accepted);
  }
  EXPECT_GE(world.sp().stats().rejects(proto::RejectCode::kReplayedSignature),
            8u);
}

}  // namespace
}  // namespace tp::sp
