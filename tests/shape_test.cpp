// Shape-regression tests: the EXPERIMENTS.md claims as assertions.
//
// The benches print tables for humans; these tests pin the *shape* of
// each reproduced result -- who wins, what dominates, how costs scale --
// so a code change that silently breaks the reproduction fails CI
// instead of producing a quietly wrong table.
#include <gtest/gtest.h>

#include "captcha/captcha.h"
#include "core/trusted_path_pal.h"
#include "host/adversary.h"
#include "pal/human_agent.h"
#include "pal/session.h"
#include "sp/fleet.h"
#include "tpm/chip_profile.h"

namespace tp {
namespace {

devices::HumanParams perfect_human() {
  devices::HumanParams p;
  p.typo_prob = 0.0;
  p.attention = 1.0;
  return p;
}

// One confirm session's timing on a given chip (768-bit keys: the shape
// under test is TPM-dominated machine time, which key size barely moves).
pal::SessionTiming confirm_timing(const std::string& chip,
                                  std::size_t payload = 256) {
  sp::FleetConfig cfg;
  cfg.client_id = "shape";
  cfg.chip_mix = {chip};
  cfg.seed = bytes_of("shape:" + chip + std::to_string(payload));
  cfg.tpm_key_bits = 768;
  cfg.client_key_bits = 768;
  sp::Fleet world(cfg);
  pal::HumanAgent agent(devices::HumanModel(perfect_human(), SimRng(1)),
                        "pay");
  world.client().set_user_agent(&agent);
  EXPECT_TRUE(world.client().enroll().ok());
  auto outcome =
      world.client().submit_transaction("pay", Bytes(payload, 1));
  EXPECT_TRUE(outcome.ok() && outcome.value().accepted);
  return outcome.value().timing;
}

// ---- T2 shapes -------------------------------------------------------

TEST(ShapeT2, ConfirmMachineTimeIsTpmDominatedOnEveryChip) {
  for (const auto& chip : tpm::standard_chips()) {
    const auto t = confirm_timing(chip.name);
    EXPECT_GT(t.tpm.ns, t.machine().ns * 9 / 10) << chip.name;
  }
}

TEST(ShapeT2, ConfirmMachineTimeUnderTwoSecondsEverywhere) {
  for (const auto& chip : tpm::standard_chips()) {
    const auto t = confirm_timing(chip.name);
    EXPECT_LT(t.machine().ns, SimDuration::seconds(2.0).ns) << chip.name;
    EXPECT_GT(t.machine().ns, SimDuration::millis(100).ns) << chip.name;
  }
}

TEST(ShapeT2, HumanTimeExceedsMachineTimeOnEveryChip) {
  for (const auto& chip : tpm::standard_chips()) {
    const auto t = confirm_timing(chip.name);
    EXPECT_GT(t.user.ns, t.machine().ns) << chip.name;
  }
}

TEST(ShapeT2, ChipOrderingMatchesUnsealCost) {
  // The chip with the slower Unseal must have the slower confirm.
  const auto broadcom = confirm_timing("Broadcom BCM5752");
  const auto infineon = confirm_timing("Infineon SLB9635");
  EXPECT_GT(broadcom.machine().ns, infineon.machine().ns * 2);
}

TEST(ShapeT3, EnrollmentCostsMoreThanConfirmation) {
  for (const auto& chip : tpm::standard_chips()) {
    sp::FleetConfig cfg;
    cfg.client_id = "shape";
    cfg.chip_mix = {chip.name};
    cfg.seed = bytes_of("shape-t3:" + chip.name);
    cfg.tpm_key_bits = 768;
    cfg.client_key_bits = 768;
    sp::Fleet world(cfg);
    core::PalEnrollInput in;
    in.nonce = Bytes(20, 1);
    in.key_bits = 768;
    pal::SessionDriver driver(world.platform());
    auto enroll = driver.run(core::make_trusted_path_pal(), in.marshal());
    ASSERT_TRUE(enroll.ok());
    EXPECT_GT(enroll.value().timing.machine().ns,
              confirm_timing(chip.name).machine().ns)
        << chip.name;
  }
}

// ---- F1 shape ---------------------------------------------------------

TEST(ShapeF1, MachineTimeFlatAcrossPayloadSizes) {
  const auto small = confirm_timing("Infineon SLB9635", 256);
  const auto large = confirm_timing("Infineon SLB9635", 64 * 1024);
  const double ratio = static_cast<double>(large.machine().ns) /
                       static_cast<double>(small.machine().ns);
  EXPECT_GT(ratio, 0.90);
  EXPECT_LT(ratio, 1.10);
}

// ---- A1 shape ---------------------------------------------------------

TEST(ShapeA1, BatchingAmortizesRoughlyLinearly) {
  auto per_tx = [](std::size_t n) {
    sp::FleetConfig cfg;
    cfg.client_id = "shape";
    cfg.seed = bytes_of("shape-a1:" + std::to_string(n));
    cfg.tpm_key_bits = 768;
    cfg.client_key_bits = 768;
    sp::Fleet world(cfg);
    std::vector<core::TrustedPathClient::BatchTx> txs;
    std::vector<core::BatchItem> preview;
    for (std::size_t i = 0; i < n; ++i) {
      txs.emplace_back("t" + std::to_string(i), Bytes{});
      preview.push_back(core::BatchItem{"t" + std::to_string(i), {}, {}});
    }
    pal::HumanAgent agent(devices::HumanModel(perfect_human(), SimRng(2)),
                          core::batch_summary(preview));
    world.client().set_user_agent(&agent);
    EXPECT_TRUE(world.client().enroll().ok());
    auto outcome = world.client().submit_batch(txs);
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.value().accepted_count(), n);
    return outcome.value().timing.machine().ns / static_cast<double>(n);
  };
  const double one = per_tx(1);
  const double eight = per_tx(8);
  EXPECT_LT(eight, one / 4);  // at least 4x amortization by batch 8
}

// ---- F2 shapes ---------------------------------------------------------

TEST(ShapeF2, MechanicalAttacksNeverGetThrough) {
  sp::FleetConfig cfg;
  cfg.client_id = "victim";
  cfg.seed = bytes_of("shape-f2");
  cfg.tpm_key_bits = 768;
  cfg.client_key_bits = 768;
  sp::Fleet world(cfg);
  pal::HumanAgent agent(devices::HumanModel(perfect_human(), SimRng(3)), "");
  world.client().set_user_agent(&agent);
  ASSERT_TRUE(world.client().enroll().ok());
  host::MalwareKit malware(world.platform(), world.endpoint(),
                           "victim", world.client().sealed_key_blob(),
                           SimRng(31337));
  for (int i = 0; i < 5; ++i) {
    const std::string tx = "forged " + std::to_string(i);
    EXPECT_FALSE(malware.forge_signature(tx, {}).sp_accepted);
    EXPECT_FALSE(malware.confirm_without_signature(tx, {}).sp_accepted);
    EXPECT_FALSE(malware.inject_keystrokes(tx, {}).sp_accepted);
    EXPECT_FALSE(malware.run_tampered_pal(tx, {}).sp_accepted);
  }
  EXPECT_EQ(world.sp().stats().tx_accepted, 0u);
}

TEST(ShapeF2, CaptchasLoseToStrongSolversTrustedPathDoesNot) {
  // The arms-race asymmetry in one assertion: at attacker strength 0.95,
  // the captcha admits a large fraction of forgeries even at distortion
  // 0.7; the trusted path (previous test) admits none.
  captcha::CaptchaService service(bytes_of("shape"));
  captcha::OcrAttacker strong(0.95, SimRng(4));
  int through = 0;
  const int kTrials = 400;
  for (int i = 0; i < kTrials; ++i) {
    const auto ch = service.issue(0.7);
    if (service.verify(ch.id, strong.attempt(ch)).ok()) ++through;
  }
  EXPECT_GT(through, kTrials / 4);
}

// ---- F4 shape ---------------------------------------------------------

TEST(ShapeF4, ConfirmationCostsLessHumanTimeThanOneEasyCaptcha) {
  devices::HumanParams params;
  devices::HumanModel human(params, SimRng(5));
  // Mean trusted-path time over 200 trials.
  double tp_total = 0;
  for (int i = 0; i < 200; ++i) {
    devices::Keyboard kb;
    tp_total += human
                    .respond_to_confirmation(
                        devices::DisplayContent{{"TX: t", "CODE: abcdef"}},
                        "t", kb)
                    .to_seconds();
  }
  double captcha_total = 0;
  for (int i = 0; i < 200; ++i) {
    captcha_total += human.captcha_time().to_seconds();
  }
  EXPECT_LT(tp_total / 200, captcha_total / 200);
}

// ---- A2 shape ---------------------------------------------------------

TEST(ShapeA2, QuoteDesignCostsAQuotePerTransaction) {
  // The structural fact behind A2: the quote-mode session charges a
  // TPM_Quote, the sealed-mode session charges a TPM_Unseal.
  drtm::PlatformConfig pc;
  pc.seed = bytes_of("shape-a2");
  pc.tpm_key_bits = 768;
  drtm::Platform platform(pc);
  pal::SessionDriver driver(platform);
  pal::HumanAgent agent(devices::HumanModel(perfect_human(), SimRng(6)),
                        "pay");
  driver.set_user_agent(&agent);

  core::PalQuoteConfirmInput in;
  in.tx_summary = "pay";
  in.tx_digest = Bytes(32, 1);
  in.nonce = Bytes(20, 2);
  const SimTime before = platform.clock().now();
  ASSERT_TRUE(driver.run(core::make_trusted_path_pal(), in.marshal()).ok());
  SimDuration quote_charged{};
  for (const auto& span : platform.clock().spans()) {
    if (span.start >= before && span.label == "tpm:quote") {
      quote_charged = quote_charged + span.duration;
    }
  }
  EXPECT_EQ(quote_charged.ns, tpm::default_chip().quote.ns);
}

}  // namespace
}  // namespace tp
