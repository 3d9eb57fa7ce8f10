// Service-provider and end-to-end protocol tests: the verifier logic,
// enrollment edge cases, replay defence, and the full benign flow over
// the simulated network.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>

#include "core/trusted_path_pal.h"
#include "crypto/p256.h"
#include "pal/human_agent.h"
#include "sp/deployment.h"
#include "sp/fleet.h"
#include "sp_frames.h"

namespace tp::sp {
namespace {

using core::TrustedPathClient;
using core::Verdict;

devices::HumanParams perfect_human() {
  devices::HumanParams p;
  p.typo_prob = 0.0;
  p.attention = 1.0;
  return p;
}

DeploymentConfig fast_config(const std::string& id = "alice") {
  DeploymentConfig cfg;
  cfg.client_id = id;
  cfg.seed = bytes_of("sp-test:" + id);
  cfg.tpm_key_bits = 768;
  cfg.client_key_bits = 768;
  return cfg;
}

class EndToEndTest : public ::testing::Test {
 protected:
  EndToEndTest()
      : world_(fast_config()),
        agent_(devices::HumanModel(perfect_human(), SimRng(11)), "") {
    world_.client().set_user_agent(&agent_);
  }

  Status enroll() { return world_.client().enroll(); }

  Result<TrustedPathClient::ConfirmOutcome> confirm(
      const std::string& summary) {
    agent_.set_intended_summary(summary);
    return world_.client().submit_transaction(summary, bytes_of("payload"));
  }

  Deployment world_;
  pal::HumanAgent agent_;
};

// --------------------------------------------------------------- Benign

TEST_F(EndToEndTest, EnrollmentSucceeds) {
  ASSERT_TRUE(enroll().ok());
  EXPECT_TRUE(world_.client().enrolled());
  EXPECT_TRUE(world_.sp().is_enrolled("alice"));
  EXPECT_EQ(world_.sp().stats().enrolled, 1u);
}

TEST_F(EndToEndTest, HappyPathTransactionAccepted) {
  ASSERT_TRUE(enroll().ok());
  auto outcome = confirm("pay 100 EUR to bob");
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().accepted);
  EXPECT_EQ(outcome.value().verdict, Verdict::kConfirmed);
  EXPECT_EQ(world_.sp().stats().tx_accepted, 1u);
}

TEST_F(EndToEndTest, MultipleTransactionsEachNeedConfirmation) {
  ASSERT_TRUE(enroll().ok());
  for (int i = 0; i < 3; ++i) {
    auto outcome = confirm("pay " + std::to_string(i) + " EUR");
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome.value().accepted);
  }
  EXPECT_EQ(world_.sp().stats().tx_accepted, 3u);
}

TEST_F(EndToEndTest, UserRejectionIsRespected) {
  ASSERT_TRUE(enroll().ok());
  // The human intends a different transaction than what arrives.
  agent_.set_intended_summary("pay 1 EUR to bob");
  auto outcome =
      world_.client().submit_transaction("pay 9999 EUR", bytes_of("p"));
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome.value().accepted);
  EXPECT_EQ(outcome.value().verdict, Verdict::kRejected);
}

TEST_F(EndToEndTest, SubmitBeforeEnrollFails) {
  auto outcome = confirm("pay 1");
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.code(), Err::kBadState);
}

TEST_F(EndToEndTest, SessionTimingIsPlausible) {
  ASSERT_TRUE(enroll().ok());
  auto outcome = confirm("pay 100 EUR to bob");
  ASSERT_TRUE(outcome.ok());
  const auto& t = outcome.value().timing;
  // The paper's headline: machine overhead is dominated by TPM ops
  // (unseal at minimum), human time dominates the total.
  EXPECT_GT(t.tpm.ns, tpm::default_chip().unseal.ns / 2);
  EXPECT_GT(t.user.ns, SimDuration::seconds(1).ns);
  EXPECT_GT(t.total.ns, t.machine().ns);
  EXPECT_LT(t.machine().ns, SimDuration::seconds(5).ns);
}

// ---------------------------------------------------- Verifier edge cases

TEST(ServiceProviderTest, RejectsEnrollmentWithoutChallenge) {
  Deployment world(fast_config());
  core::EnrollComplete msg;
  msg.client_id = "stranger";
  const auto result = test::complete_enrollment(world.sp(), msg);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reason, "no pending enrollment challenge");
  EXPECT_EQ(result.code, proto::RejectCode::kNoPendingEnrollment);
}

TEST(ServiceProviderTest, RejectsForgedCaCertificate) {
  Deployment world(fast_config());
  // A certificate signed by a rogue CA.
  tpm::PrivacyCa rogue(bytes_of("rogue-ca"), 768);
  const auto cert =
      rogue.certify("alice", world.platform().tpm().aik_public());

  const auto challenge =
      test::begin_enrollment(world.sp(), core::EnrollBegin{"alice"});
  core::EnrollComplete msg;
  msg.client_id = "alice";
  msg.confirmation_pubkey = Bytes(10, 1);
  msg.quote = Bytes(10, 2);
  msg.aik_certificate = cert.serialize();
  (void)challenge;
  const auto result = test::complete_enrollment(world.sp(), msg);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reason, "AIK certificate not signed by trusted CA");
}

TEST(ServiceProviderTest, RejectsQuoteFromTamperedPal) {
  // Full pipeline, but the quote comes from a session of a DIFFERENT PAL
  // image: PCR17 != golden.
  Deployment world(fast_config());
  auto& platform = world.platform();

  const auto challenge =
      test::begin_enrollment(world.sp(), core::EnrollBegin{"alice"});

  // Run enrollment inside a look-alike PAL with a patched image.
  pal::PalDescriptor evil = core::make_trusted_path_pal();
  evil.image = pal::PalDescriptor::make_image(core::kPalName,
                                              core::kPalVersion, "patched");
  core::PalEnrollInput in;
  in.nonce = challenge.nonce;
  in.key_bits = 768;
  pal::SessionDriver driver(platform);
  auto session = driver.run(evil, in.marshal());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value().status.ok());
  auto out = core::PalEnrollOutput::unmarshal(session.value().output);
  ASSERT_TRUE(out.ok());

  core::EnrollComplete msg;
  msg.client_id = "alice";
  msg.confirmation_pubkey = out.value().pubkey;
  msg.quote = out.value().quote;
  msg.aik_certificate =
      world.ca().certify("alice", platform.tpm().aik_public()).serialize();
  const auto result = test::complete_enrollment(world.sp(), msg);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reason, "PCR17 does not match golden PAL measurement");
}

TEST(ServiceProviderTest, RejectsQuoteBoundToWrongNonce) {
  // Replay a quote produced under an older challenge.
  Deployment world(fast_config());
  auto& platform = world.platform();

  // Legit PAL run bound to nonce A...
  const Bytes stale_nonce(20, 0x77);
  core::PalEnrollInput in;
  in.nonce = stale_nonce;
  in.key_bits = 768;
  pal::SessionDriver driver(platform);
  auto session = driver.run(core::make_trusted_path_pal(), in.marshal());
  ASSERT_TRUE(session.ok());
  auto out = core::PalEnrollOutput::unmarshal(session.value().output);
  ASSERT_TRUE(out.ok());

  // ...submitted against a fresh challenge B.
  (void)test::begin_enrollment(world.sp(), core::EnrollBegin{"alice"});
  core::EnrollComplete msg;
  msg.client_id = "alice";
  msg.confirmation_pubkey = out.value().pubkey;
  msg.quote = out.value().quote;
  msg.aik_certificate =
      world.ca().certify("alice", platform.tpm().aik_public()).serialize();
  const auto result = test::complete_enrollment(world.sp(), msg);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reason, "quote verification failed");
}

TEST(ServiceProviderTest, TxChallengesAreOneShot) {
  Deployment world(fast_config());
  devices::HumanParams hp = perfect_human();
  pal::HumanAgent agent(devices::HumanModel(hp, SimRng(3)), "pay 5");
  world.client().set_user_agent(&agent);
  ASSERT_TRUE(world.client().enroll().ok());
  auto outcome = world.client().submit_transaction("pay 5", bytes_of("p"));
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome.value().accepted);

  // Completing the same tx_id again must fail (challenge consumed).
  // While the settled session is held for idempotent replay, a
  // completion that is not a byte-identical retransmit gets the typed
  // retry-mismatch reject; once the hold window closes, the tx id is
  // simply unknown. Neither re-executes the transaction.
  core::TxConfirm stale;
  stale.client_id = "alice";
  stale.tx_id = 1;
  stale.verdict = Verdict::kConfirmed;
  stale.signature = Bytes(96, 1);
  const auto held = test::complete_transaction(world.sp(), stale);
  EXPECT_FALSE(held.accepted);
  EXPECT_EQ(held.code, proto::RejectCode::kRetryMismatch);

  world.clock().advance(SimDuration::seconds(121));  // past session_ttl
  const auto result = test::complete_transaction(world.sp(), stale);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reason, "unknown or already-settled transaction");
  EXPECT_EQ(result.code, proto::RejectCode::kUnknownTx);
  EXPECT_EQ(world.sp().stats().tx_accepted, 1u);
}

TEST(ServiceProviderTest, RejectsClientMismatch) {
  Deployment world(fast_config());
  const auto challenge = test::begin_transaction(
      world.sp(), core::TxSubmit{"alice", "pay 5", bytes_of("p")});
  core::TxConfirm msg;
  msg.client_id = "mallory";
  msg.tx_id = challenge.tx_id;
  msg.verdict = Verdict::kConfirmed;
  msg.signature = Bytes(96, 1);
  const auto result = test::complete_transaction(world.sp(), msg);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reason, "client mismatch");
  EXPECT_EQ(result.code, proto::RejectCode::kClientMismatch);
}

TEST(ServiceProviderTest, RejectsUnenrolledClient) {
  Deployment world(fast_config());
  const auto challenge = test::begin_transaction(
      world.sp(), core::TxSubmit{"nobody", "pay 5", bytes_of("p")});
  core::TxConfirm msg;
  msg.client_id = "nobody";
  msg.tx_id = challenge.tx_id;
  msg.verdict = Verdict::kConfirmed;
  msg.signature = Bytes(96, 1);
  const auto result = test::complete_transaction(world.sp(), msg);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reason, "client not enrolled");
}

TEST(ServiceProviderTest, NonConfirmedVerdictsRejected) {
  Deployment world(fast_config());
  pal::HumanAgent agent(
      devices::HumanModel(perfect_human(), SimRng(3)), "x");
  world.client().set_user_agent(&agent);
  ASSERT_TRUE(world.client().enroll().ok());
  for (Verdict v : {Verdict::kRejected, Verdict::kTimeout}) {
    const auto challenge = test::begin_transaction(
        world.sp(), core::TxSubmit{"alice", "pay 5", bytes_of("p")});
    core::TxConfirm msg;
    msg.client_id = "alice";
    msg.tx_id = challenge.tx_id;
    msg.verdict = v;
    const auto result = test::complete_transaction(world.sp(), msg);
    EXPECT_FALSE(result.accepted);
  }
}

TEST(ServiceProviderTest, MalformedFramesAnsweredNotCrashed) {
  Deployment world(fast_config());
  (void)world.sp().handle_frame(Bytes{});
  (void)world.sp().handle_frame(Bytes{0xff, 0x01});
  (void)world.sp().handle_frame(Bytes{0x05});  // TxSubmit with no body
  (void)world.sp().handle_frame(Bytes{0x07, 0x01, 0x02});  // bad TxConfirm
  // Stats recorded a rejection for the malformed TxConfirm.
  EXPECT_GE(world.sp().stats().rejects(proto::RejectCode::kMalformedTxConfirm),
            1u);
}

TEST(ServiceProviderTest, StatsTrackRejectCodes) {
  Deployment world(fast_config());
  core::EnrollComplete msg;
  msg.client_id = "ghost";
  (void)test::complete_enrollment(world.sp(), msg);
  EXPECT_EQ(
      world.sp().stats().rejects(proto::RejectCode::kNoPendingEnrollment),
      1u);
  EXPECT_EQ(world.sp().stats().enroll_rejected, 1u);
  EXPECT_EQ(world.sp().stats().total_rejects(), 1u);
}

TEST(ServiceProviderTest, ReEnrollmentCountsTheClientOnce) {
  // A client that enrolls again replaces its key; `enrolled` and its
  // per-format slice count clients, not accepted enrollments.
  Deployment world(fast_config());
  ASSERT_TRUE(world.client().enroll().ok());
  ASSERT_TRUE(world.client().enroll().ok());
  const SpStats stats = world.sp().stats();
  EXPECT_EQ(world.sp().enrolled_count(), 1u);
  EXPECT_EQ(stats.enrolled, 1u);
  EXPECT_EQ(stats.enrolled_format(tpm::QuoteFormat::kTpm12), 1u);
}

TEST(ServiceProviderTest, StatsResetGivesCleanPhaseMeasurements) {
  Deployment world(fast_config());
  core::EnrollComplete msg;
  msg.client_id = "ghost";
  (void)test::complete_enrollment(world.sp(), msg);
  core::TxConfirm confirm;
  confirm.client_id = "ghost";
  confirm.tx_id = 1234;
  (void)test::complete_transaction(world.sp(), confirm);
  ASSERT_EQ(world.sp().stats().enroll_rejected, 1u);
  ASSERT_EQ(world.sp().stats().tx_rejected, 1u);

  world.sp().reset_stats();
  const SpStats stats = world.sp().stats();
  EXPECT_EQ(stats.enroll_rejected, 0u);
  EXPECT_EQ(stats.tx_rejected, 0u);
  EXPECT_EQ(stats.total_rejects(), 0u);

  // The struct itself resets too (for snapshot copies held by benches).
  SpStats copy = world.sp().stats();
  copy.tx_accepted = 7;
  copy.reset();
  EXPECT_EQ(copy.tx_accepted, 0u);
  EXPECT_EQ(copy.total_rejects(), 0u);

  // And the latency histograms are registry-backed alongside.
  (void)test::complete_transaction(world.sp(), confirm);
  EXPECT_EQ(world.sp().stats().tx_rejected, 1u);
}

// ------------------------------------------------------ Session lifecycle

TEST(ServiceProviderTest, SessionExpiresOnDeploymentClock) {
  // The deployment wires the SP's session deadlines to the platform's
  // SimClock: advancing simulated time past the TTL expires the
  // half-open session, and the completion is rejected. The frame path's
  // retransmission screen collects the expired slot before the gate
  // sees it, so the reply is the generic no-session reject (the bytes
  // the differential goldens pin), while the expiry is counted.
  DeploymentConfig cfg = fast_config();
  cfg.session_ttl = SimDuration::seconds(30);
  Deployment world(cfg);

  const auto challenge = test::begin_transaction(
      world.sp(), core::TxSubmit{"alice", "pay 5", bytes_of("p")});
  EXPECT_EQ(world.sp().session_table_occupancy(), 1u);

  world.clock().advance(SimDuration::seconds(31));
  core::TxConfirm msg;
  msg.client_id = "alice";
  msg.tx_id = challenge.tx_id;
  msg.verdict = Verdict::kConfirmed;
  msg.signature = Bytes(96, 1);
  const auto result = test::complete_transaction(world.sp(), msg);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.code, proto::RejectCode::kUnknownTx);
  EXPECT_EQ(world.sp().session_table_occupancy(), 0u);
  EXPECT_EQ(world.sp().stats().sessions_expired, 1u);
}

TEST(ServiceProviderTest, EnrollSessionsBoundedPerClient) {
  // One client re-sending EnrollBegin occupies exactly one slot, however
  // often it begins.
  Deployment world(fast_config());
  for (int i = 0; i < 100; ++i) {
    (void)test::begin_enrollment(world.sp(), core::EnrollBegin{"alice"});
  }
  EXPECT_EQ(world.sp().session_table_occupancy(), 1u);
  EXPECT_EQ(world.sp().stats().sessions_evicted, 0u);
}

TEST(ServiceProviderTest, TxSessionsEvictOldestUnderPressure) {
  DeploymentConfig cfg = fast_config();
  cfg.tx_session_capacity = 8;
  Deployment world(cfg);
  const std::size_t flat = world.sp().session_table_memory_bytes();
  core::TxChallenge first;
  for (int i = 0; i < 100; ++i) {
    const auto ch = test::begin_transaction(
        world.sp(),
        core::TxSubmit{"alice", "pay " + std::to_string(i), bytes_of("p")});
    if (i == 0) first = ch;
  }
  EXPECT_EQ(world.sp().session_table_occupancy(), 8u);
  EXPECT_EQ(world.sp().stats().sessions_evicted, 92u);
  EXPECT_EQ(world.sp().session_table_memory_bytes(), flat);

  // The evicted (oldest) challenge is gone; completing it gets the
  // generic no-session reject, not a stale acceptance.
  core::TxConfirm msg;
  msg.client_id = "alice";
  msg.tx_id = first.tx_id;
  msg.verdict = Verdict::kConfirmed;
  msg.signature = Bytes(96, 1);
  const auto result = test::complete_transaction(world.sp(), msg);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.code, proto::RejectCode::kUnknownTx);
}

TEST(ServiceProviderTest, MemoryBytesGrowByPerClientBytesPerFormat) {
  // memory_bytes() is the flat bounded tables plus, per enrolled client,
  // its id, key and verify context. Every enrollment of one format adds
  // the same bytes (the ids below have equal length), so N clients of
  // each format grow it by exactly N x that format's per-client bytes;
  // EXPERIMENTS.md F9 publishes the figures this test prints.
  constexpr std::size_t kPerFormat = 3;
  FleetConfig cfg;
  cfg.num_clients = 2 * kPerFormat;  // "fleet-client-0" .. "fleet-client-5"
  cfg.seed = bytes_of("sp-test:memory");
  cfg.client_key_bits = 2048;  // the deployed confirmation-key size
  cfg.backend_mix = {tpm::QuoteFormat::kTpm12, tpm::QuoteFormat::kTpm2};
  Fleet fleet(cfg);
  ServiceProvider& sp = fleet.sp();
  const std::size_t flat = sp.memory_bytes();
  EXPECT_EQ(flat, sp.session_table_memory_bytes() +
                      sp.replay_cache_memory_bytes() +
                      sp.submit_dedup_memory_bytes());

  std::array<std::size_t, tpm::kNumQuoteFormats> per_client{};
  std::size_t before = flat;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    ASSERT_TRUE(fleet.client(i).enroll().ok()) << "client " << i;
    const std::size_t grown = sp.memory_bytes() - before;
    before = sp.memory_bytes();
    std::size_t& figure = per_client[tpm::quote_format_index(fleet.backend(i))];
    if (figure == 0) figure = grown;
    EXPECT_EQ(grown, figure) << "client " << i;
  }
  const std::size_t tpm12 = per_client[0];
  const std::size_t tpm2 = per_client[1];
  EXPECT_EQ(sp.enrolled_count(), 2 * kPerFormat);
  EXPECT_EQ(sp.memory_bytes() - flat, kPerFormat * tpm12 + kPerFormat * tpm2);
  // TPM 2.0: the 32 KiB P-256 window table plus the key and the node.
  EXPECT_GT(tpm2, crypto::p256::WindowTable::kMemoryBytes);
  EXPECT_LT(tpm2, crypto::p256::WindowTable::kMemoryBytes + 1024);
  // TPM 1.2: one copy of the 256-byte RSA-2048 modulus (the Montgomery
  // context's 64-bit limbs) and R^2 mod n, plus e and the node.
  EXPECT_GT(tpm12, 2 * 256u);
  EXPECT_LT(tpm12, 4096u);
  std::printf("per-client bytes (14-char id): tpm12=%zu tpm2=%zu\n", tpm12,
              tpm2);
}

TEST(ServiceProviderTest, ResultsCarryTypedCodeOnTheWire) {
  // The u8 code survives serialize/deserialize next to the legacy reason.
  Deployment world(fast_config());
  core::TxConfirm confirm;
  confirm.client_id = "ghost";
  confirm.tx_id = 99;
  const auto result = test::complete_transaction(world.sp(), confirm);
  const auto reparsed =
      core::TxResult::deserialize(result.serialize());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().code, proto::RejectCode::kUnknownTx);
  EXPECT_EQ(reparsed.value().reason, result.reason);
}

}  // namespace
}  // namespace tp::sp
