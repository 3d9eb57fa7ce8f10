// Tests for the second batch of extensions: the multi-client fleet, the
// spending-limit PAL (stateful, rollback-protected), and the
// quote-per-transaction design alternative.
#include <gtest/gtest.h>

#include "core/trusted_path_pal.h"
#include "pal/human_agent.h"
#include "pal/session.h"
#include "sp/deployment.h"
#include "sp/fleet.h"
#include "sp_frames.h"

namespace tp {
namespace {

using core::Verdict;

devices::HumanParams perfect_human() {
  devices::HumanParams p;
  p.typo_prob = 0.0;
  p.attention = 1.0;
  return p;
}

// ------------------------------------------------------------------ Fleet

TEST(FleetTest, MixedFleetEnrollsAgainstOneSp) {
  sp::FleetConfig cfg;
  cfg.num_clients = 6;
  cfg.seed = bytes_of("fleet-test");
  cfg.chip_mix = {"Infineon SLB9635", "Broadcom BCM5752"};
  cfg.technology_mix = {drtm::DrtmTechnology::kAmdSkinit,
                        drtm::DrtmTechnology::kIntelTxt};
  sp::Fleet fleet(cfg);
  ASSERT_EQ(fleet.size(), 6u);

  // Every member needs a human for the (non-interactive) enrollment? No:
  // ENROLL has no prompt; enroll_all works unattended.
  EXPECT_EQ(fleet.enroll_all(), 6u);
  EXPECT_EQ(fleet.sp().stats().enrolled, 6u);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_TRUE(fleet.sp().is_enrolled(fleet.client_id(i)));
  }
}

TEST(FleetTest, MembersConfirmIndependently) {
  sp::FleetConfig cfg;
  cfg.num_clients = 3;
  cfg.seed = bytes_of("fleet-test-2");
  sp::Fleet fleet(cfg);
  ASSERT_EQ(fleet.enroll_all(), 3u);

  for (std::size_t i = 0; i < fleet.size(); ++i) {
    pal::HumanAgent agent(
        devices::HumanModel(perfect_human(), SimRng(100 + i)),
        "pay " + std::to_string(i));
    fleet.client(i).set_user_agent(&agent);
    auto outcome =
        fleet.client(i).submit_transaction("pay " + std::to_string(i), {});
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome.value().accepted) << "client " << i;
  }
  EXPECT_EQ(fleet.sp().stats().tx_accepted, 3u);
}

TEST(FleetTest, OneMembersKeyUselessToAnother) {
  sp::FleetConfig cfg;
  cfg.num_clients = 2;
  cfg.seed = bytes_of("fleet-test-3");
  sp::Fleet fleet(cfg);
  ASSERT_EQ(fleet.enroll_all(), 2u);

  // Client 1 steals client 0's sealed key and tries to confirm with it
  // on its own machine: the blob belongs to a different TPM.
  pal::HumanAgent agent(devices::HumanModel(perfect_human(), SimRng(9)),
                        "theft");
  core::TxSubmit submit{fleet.client_id(1), "theft", bytes_of("p")};
  const auto challenge = test::begin_transaction(fleet.sp(), submit);
  core::PalConfirmInput in;
  in.tx_summary = "theft";
  in.tx_digest = submit.digest();
  in.nonce = challenge.nonce;
  in.sealed_key = fleet.client(0).sealed_key_blob();  // stolen
  pal::SessionDriver driver(fleet.platform(1));
  driver.set_user_agent(&agent);
  auto session = driver.run(core::make_trusted_path_pal(), in.marshal());
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session.value().status.code(), Err::kAuthFail);
}

// --------------------------------------------------------- Spending limit

class SpendingLimitTest : public ::testing::Test {
 protected:
  SpendingLimitTest()
      : world_(make_config()),
        agent_(devices::HumanModel(perfect_human(), SimRng(3)), "") {
    world_.client().set_user_agent(&agent_);
    EXPECT_TRUE(world_.client().enroll().ok());
  }

  static sp::DeploymentConfig make_config() {
    sp::DeploymentConfig cfg;
    cfg.client_id = "limited";
    cfg.seed = bytes_of("limit-test");
    cfg.tpm_key_bits = 768;
    cfg.client_key_bits = 768;
    return cfg;
  }

  Result<core::TrustedPathClient::LimitedOutcome> spend(
      std::uint64_t amount_cents, std::uint64_t limit_cents = 10000) {
    const std::string summary =
        "pay " + std::to_string(amount_cents) + " cents";
    agent_.set_intended_summary(summary);
    return world_.client().submit_limited_transaction(
        summary, bytes_of("p"), amount_cents, limit_cents);
  }

  sp::Deployment world_;
  pal::HumanAgent agent_;
};

TEST_F(SpendingLimitTest, AccumulatesAndEnforces) {
  auto first = spend(4000);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value().accepted);
  EXPECT_EQ(first.value().spent_cents, 4000u);

  auto second = spend(4000);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().accepted);
  EXPECT_EQ(second.value().spent_cents, 8000u);

  // 8000 + 4000 > 10000: the PAL refuses BEFORE asking the user.
  auto third = spend(4000);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third.value().accepted);
  EXPECT_TRUE(third.value().limit_exceeded);
  EXPECT_EQ(third.value().verdict, Verdict::kRejected);

  // Small amounts still fit under the cap.
  auto fourth = spend(2000);
  ASSERT_TRUE(fourth.ok());
  EXPECT_TRUE(fourth.value().accepted);
  EXPECT_EQ(fourth.value().spent_cents, 10000u);
}

TEST_F(SpendingLimitTest, MalwareCannotRaiseTheLimit) {
  ASSERT_TRUE(spend(9000, 10000).value().accepted);
  // Malware rewrites the client config to a one-million limit; the PAL
  // uses the SEALED limit and still blocks.
  auto attempt = spend(5000, 100000000);
  ASSERT_TRUE(attempt.ok());
  EXPECT_TRUE(attempt.value().limit_exceeded);
  EXPECT_FALSE(attempt.value().accepted);
}

TEST_F(SpendingLimitTest, RollbackAttackDetected) {
  ASSERT_TRUE(spend(3000).value().accepted);
  const Bytes old_state = world_.client().spending_state_blob();
  ASSERT_TRUE(spend(3000).value().accepted);

  // Malware swaps yesterday's state file back in to "un-spend" 3000.
  world_.client().set_spending_state_blob(old_state);
  auto attempt = spend(3000);
  EXPECT_FALSE(attempt.ok());
  EXPECT_EQ(attempt.code(), Err::kReplay);
}

TEST_F(SpendingLimitTest, ZeroInitialLimitRejected) {
  auto attempt = spend(100, 0);
  EXPECT_FALSE(attempt.ok());
  EXPECT_EQ(attempt.code(), Err::kInvalidArgument);
}

TEST_F(SpendingLimitTest, RejectionDoesNotConsumeBudget) {
  ASSERT_TRUE(spend(1000).value().accepted);
  agent_.set_intended_summary("something else entirely");
  auto rejected = world_.client().submit_limited_transaction(
      "pay 2000 cents", bytes_of("p"), 2000, 10000);
  ASSERT_TRUE(rejected.ok());
  EXPECT_FALSE(rejected.value().accepted);
  // The running total is unchanged: only confirmed spends count.
  auto next = spend(1000);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value().spent_cents, 2000u);
}

TEST(LimitedMarshalling, RoundTrip) {
  core::PalLimitedConfirmInput in;
  in.tx_summary = "s";
  in.tx_digest = Bytes(32, 1);
  in.nonce = Bytes(20, 2);
  in.sealed_key = Bytes(64, 3);
  in.amount_cents = 1234;
  in.limit_cents = 99999;
  in.sealed_state = Bytes(40, 4);
  Bytes wire = in.marshal();
  auto back =
      core::PalLimitedConfirmInput::unmarshal(BytesView(wire).subspan(1));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().amount_cents, 1234u);
  EXPECT_EQ(back.value().limit_cents, 99999u);

  core::PalLimitedConfirmOutput out;
  out.verdict = Verdict::kConfirmed;
  out.signature = Bytes(96, 5);
  out.new_sealed_state = Bytes(40, 6);
  out.spent_cents = 777;
  out.limit_cents = 1000;
  out.limit_exceeded = false;
  auto out_back = core::PalLimitedConfirmOutput::unmarshal(out.marshal());
  ASSERT_TRUE(out_back.ok());
  EXPECT_EQ(out_back.value().spent_cents, 777u);
}

// ------------------------------------------------- Quote-design (A2)

class QuoteDesignTest : public ::testing::Test {
 protected:
  QuoteDesignTest() : platform_(make_platform()), driver_(platform_) {}

  static drtm::PlatformConfig make_platform() {
    drtm::PlatformConfig pc;
    pc.seed = bytes_of("quote-design");
    pc.tpm_key_bits = 768;
    return pc;
  }

  drtm::Platform platform_;
  pal::SessionDriver driver_;
};

TEST_F(QuoteDesignTest, QuoteConfirmationVerifies) {
  pal::HumanAgent agent(devices::HumanModel(perfect_human(), SimRng(2)),
                        "pay 10");
  driver_.set_user_agent(&agent);
  core::PalQuoteConfirmInput in;
  in.tx_summary = "pay 10";
  in.tx_digest = Bytes(32, 7);
  in.nonce = Bytes(20, 8);
  auto session = driver_.run(core::make_trusted_path_pal(), in.marshal());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value().status.ok());
  auto out = core::PalQuoteConfirmOutput::unmarshal(session.value().output);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().verdict, Verdict::kConfirmed);

  const std::vector<core::AttestationPolicy> accepted = {
      core::attestation_policy(drtm::DrtmTechnology::kAmdSkinit)};
  EXPECT_TRUE(core::verify_quote_confirmation(platform_.tpm().aik_public(),
                                              accepted, in.tx_digest,
                                              in.nonce, out.value().quote)
                  .ok());
}

TEST_F(QuoteDesignTest, QuoteBindsTransactionAndNonce) {
  pal::HumanAgent agent(devices::HumanModel(perfect_human(), SimRng(2)),
                        "pay 10");
  driver_.set_user_agent(&agent);
  core::PalQuoteConfirmInput in;
  in.tx_summary = "pay 10";
  in.tx_digest = Bytes(32, 7);
  in.nonce = Bytes(20, 8);
  auto session = driver_.run(core::make_trusted_path_pal(), in.marshal());
  auto out = core::PalQuoteConfirmOutput::unmarshal(session.value().output);
  ASSERT_TRUE(out.ok());

  const std::vector<core::AttestationPolicy> accepted = {
      core::attestation_policy(drtm::DrtmTechnology::kAmdSkinit)};
  // Different transaction or nonce: rejected.
  EXPECT_FALSE(core::verify_quote_confirmation(
                   platform_.tpm().aik_public(), accepted, Bytes(32, 9),
                   in.nonce, out.value().quote)
                   .ok());
  EXPECT_FALSE(core::verify_quote_confirmation(
                   platform_.tpm().aik_public(), accepted, in.tx_digest,
                   Bytes(20, 1), out.value().quote)
                   .ok());
}

TEST_F(QuoteDesignTest, TamperedPalQuoteFailsPolicy) {
  // Run the quote flow inside a patched PAL: the quote verifies as a
  // signature but its PCRs match no accepted policy.
  pal::HumanAgent agent(devices::HumanModel(perfect_human(), SimRng(2)),
                        "pay 10");
  driver_.set_user_agent(&agent);
  pal::PalDescriptor patched = core::make_trusted_path_pal();
  patched.image = pal::PalDescriptor::make_image(core::kPalName,
                                                 core::kPalVersion, "evil");
  core::PalQuoteConfirmInput in;
  in.tx_summary = "pay 10";
  in.tx_digest = Bytes(32, 7);
  in.nonce = Bytes(20, 8);
  auto session = driver_.run(patched, in.marshal());
  auto out = core::PalQuoteConfirmOutput::unmarshal(session.value().output);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().verdict, Verdict::kConfirmed);

  const std::vector<core::AttestationPolicy> accepted = {
      core::attestation_policy(drtm::DrtmTechnology::kAmdSkinit)};
  EXPECT_EQ(core::verify_quote_confirmation(platform_.tpm().aik_public(),
                                            accepted, in.tx_digest, in.nonce,
                                            out.value().quote)
                .code(),
            Err::kPcrMismatch);
}

TEST(QuoteDesignMarshalling, RoundTrip) {
  core::PalQuoteConfirmInput in;
  in.tx_summary = "s";
  in.tx_digest = Bytes(32, 1);
  in.nonce = Bytes(20, 2);
  Bytes wire = in.marshal();
  EXPECT_TRUE(
      core::PalQuoteConfirmInput::unmarshal(BytesView(wire).subspan(1)).ok());

  core::PalQuoteConfirmOutput out;
  out.verdict = Verdict::kTimeout;
  EXPECT_TRUE(core::PalQuoteConfirmOutput::unmarshal(out.marshal()).ok());
}

}  // namespace
}  // namespace tp
