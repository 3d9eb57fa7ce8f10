// Tests for the extension features: Intel TXT launch flavour, batch
// confirmation, rollback-protected sealed state, TPM ownership/OIAP
// authorization, and the SP baseline policy mode.
#include <gtest/gtest.h>

#include "core/trusted_path_pal.h"
#include "drtm/late_launch.h"
#include "host/adversary.h"
#include "pal/human_agent.h"
#include "pal/sealed_state.h"
#include "pal/session.h"
#include "sp/fleet.h"
#include "sp_frames.h"

namespace tp {
namespace {

using core::Verdict;
using drtm::DrtmTechnology;

devices::HumanParams perfect_human() {
  devices::HumanParams p;
  p.typo_prob = 0.0;
  p.attention = 1.0;
  return p;
}

sp::FleetConfig fast_config(const std::string& id,
                            DrtmTechnology tech) {
  sp::FleetConfig cfg;
  cfg.client_id = id;
  cfg.seed = bytes_of("ext-test:" + id);
  cfg.tpm_key_bits = 768;
  cfg.client_key_bits = 768;
  cfg.technology_mix = {tech};
  return cfg;
}

// ------------------------------------------------------------ Intel TXT

TEST(IntelTxt, MeasurementChainUsesPcr17And18And19) {
  drtm::PlatformConfig pc;
  pc.seed = bytes_of("txt");
  pc.tpm_key_bits = 768;
  pc.technology = DrtmTechnology::kIntelTxt;
  drtm::Platform platform(pc);
  EXPECT_EQ(platform.identity_pcr(), 18u);

  drtm::LateLaunch launcher(platform);
  const Bytes image = pal::PalDescriptor::make_image("mle", 1);
  auto guard = launcher.launch(image, bytes_of("in"));
  ASSERT_TRUE(guard.ok());

  // PCR17 = SINIT + LCP chain, PCR18 = MLE identity, PCR19 = inputs.
  EXPECT_EQ(platform.tpm().pcr_read(17).value(),
            drtm::predicted_txt_pcr17(pc.txt));
  EXPECT_EQ(platform.tpm().pcr_read(18).value(),
            drtm::predicted_extend_of(image));
  EXPECT_EQ(platform.tpm().pcr_read(19).value(),
            drtm::predicted_extend_of(bytes_of("in")));
}

TEST(IntelTxt, ExitCapsCoverPcr19Too) {
  drtm::PlatformConfig pc;
  pc.seed = bytes_of("txt2");
  pc.tpm_key_bits = 768;
  pc.technology = DrtmTechnology::kIntelTxt;
  drtm::Platform platform(pc);
  drtm::LateLaunch launcher(platform);
  Bytes pcr19_inside;
  {
    auto guard = launcher.launch(pal::PalDescriptor::make_image("m", 1),
                                 bytes_of("in"));
    ASSERT_TRUE(guard.ok());
    auto hold = guard.take();
    pcr19_inside = platform.tpm().pcr_read(19).value();
  }
  EXPECT_NE(platform.tpm().pcr_read(19).value(), pcr19_inside);
}

TEST(IntelTxt, EndToEndEnrollAndConfirm) {
  sp::Fleet world(fast_config("txt-client", DrtmTechnology::kIntelTxt));
  pal::HumanAgent agent(devices::HumanModel(perfect_human(), SimRng(1)),
                        "pay 10 EUR to bob");
  world.client().set_user_agent(&agent);
  ASSERT_TRUE(world.client().enroll().ok());
  auto outcome =
      world.client().submit_transaction("pay 10 EUR to bob", bytes_of("p"));
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().accepted);
}

TEST(IntelTxt, GoldenIdentityValueSameRegisterDiffers) {
  const auto skinit = core::attestation_policy(DrtmTechnology::kAmdSkinit);
  const auto txt = core::attestation_policy(DrtmTechnology::kIntelTxt);
  EXPECT_EQ(skinit.selection, tpm::PcrSelection::of({17}));
  EXPECT_EQ(txt.selection, tpm::PcrSelection::of({17, 18}));
  // The PAL identity value is the same digest; it just lives in a
  // different register.
  EXPECT_EQ(skinit.values[0], txt.values[1]);
  EXPECT_NE(txt.values[0], txt.values[1]);
}

TEST(IntelTxt, SpRejectsWrongSinitChain) {
  // A TXT platform with a non-standard (e.g., outdated/forged) SINIT ACM
  // produces a different PCR17 chain: the SP must reject enrollment.
  auto cfg = fast_config("txt-evil", DrtmTechnology::kIntelTxt);
  sp::Fleet world(cfg);

  // Rebuild the platform with different artifacts than the SP accepts.
  drtm::PlatformConfig pc;
  pc.platform_id = "txt-evil-platform";
  pc.seed = bytes_of("evil-sinit");
  pc.tpm_key_bits = 768;
  pc.technology = DrtmTechnology::kIntelTxt;
  pc.txt.sinit_acm = bytes_of("forged SINIT module");
  drtm::Platform rogue(pc);

  const auto challenge =
      test::begin_enrollment(world.sp(), core::EnrollBegin{"txt-evil"});
  core::PalEnrollInput in;
  in.nonce = challenge.nonce;
  in.key_bits = 768;
  pal::SessionDriver driver(rogue);
  auto session = driver.run(core::make_trusted_path_pal(), in.marshal());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value().status.ok());
  auto out = core::PalEnrollOutput::unmarshal(session.value().output);
  ASSERT_TRUE(out.ok());

  core::EnrollComplete msg;
  msg.client_id = "txt-evil";
  msg.confirmation_pubkey = out.value().pubkey;
  msg.quote = out.value().quote;
  msg.aik_certificate =
      world.ca().certify("txt-evil", rogue.tpm().aik_public()).serialize();
  EXPECT_FALSE(test::complete_enrollment(world.sp(), msg).accepted);
}

TEST(IntelTxt, SealedKeyDoesNotCrossTechnologies) {
  // A key sealed under SKINIT (PCR17 = PAL identity) cannot be used on a
  // TXT launch of the same PAL on the same TPM: PCR17 holds the SINIT
  // chain there. (One physical machine has one technology; this guards
  // the *code* against conflating the two.)
  drtm::PlatformConfig pc;
  pc.seed = bytes_of("cross");
  pc.tpm_key_bits = 768;
  pc.technology = DrtmTechnology::kAmdSkinit;
  drtm::Platform platform(pc);
  pal::SessionDriver driver(platform);

  core::PalEnrollInput in;
  in.nonce = Bytes(20, 1);
  in.key_bits = 768;
  auto session = driver.run(core::make_trusted_path_pal(), in.marshal());
  auto out = core::PalEnrollOutput::unmarshal(session.value().output);
  ASSERT_TRUE(out.ok());

  // "Re-flash" the machine to TXT (simulation-only thought experiment).
  drtm::PlatformConfig pc2 = pc;
  pc2.technology = DrtmTechnology::kIntelTxt;
  drtm::Platform txt_platform(pc2);
  // The sealed blob belongs to the OTHER TpmDevice instance; cross-device
  // unsealing already fails (kAuthFail). The point here: even on the same
  // platform object, PCR17 after a TXT launch never matches the SKINIT
  // sealing composite -- assert via golden values.
  EXPECT_NE(drtm::predicted_txt_pcr17(pc2.txt), core::golden_pcr17());
}

// ---------------------------------------------------- Batch confirmation

class BatchTest : public ::testing::Test {
 protected:
  BatchTest()
      : world_(fast_config("batcher", DrtmTechnology::kAmdSkinit)),
        agent_(devices::HumanModel(perfect_human(), SimRng(2)), "") {
    world_.client().set_user_agent(&agent_);
    EXPECT_TRUE(world_.client().enroll().ok());
  }

  std::vector<core::TrustedPathClient::BatchTx> make_batch(std::size_t n) {
    std::vector<core::TrustedPathClient::BatchTx> txs;
    std::vector<core::BatchItem> preview;
    for (std::size_t i = 0; i < n; ++i) {
      const std::string summary = "pay " + std::to_string(i + 1) + " EUR";
      txs.emplace_back(summary, bytes_of("payload"));
      preview.push_back(core::BatchItem{summary, {}, {}});
    }
    agent_.set_intended_summary(core::batch_summary(preview));
    return txs;
  }

  sp::Fleet world_;
  pal::HumanAgent agent_;
};

TEST_F(BatchTest, AllTransactionsAcceptedInOneSession) {
  auto outcome = world_.client().submit_batch(make_batch(5));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().verdict, Verdict::kConfirmed);
  EXPECT_EQ(outcome.value().accepted_count(), 5u);
  EXPECT_EQ(world_.sp().stats().tx_accepted, 5u);
  // One session: exactly one unseal was paid.
  EXPECT_LT(outcome.value().timing.tpm.ns,
            2 * tpm::default_chip().unseal.ns);
}

TEST_F(BatchTest, BatchOfOneEqualsSingleConfirm) {
  auto outcome = world_.client().submit_batch(make_batch(1));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().accepted_count(), 1u);
}

TEST_F(BatchTest, RejectionRejectsWholeBatch) {
  auto txs = make_batch(4);
  agent_.set_intended_summary("something completely different");
  auto outcome = world_.client().submit_batch(txs);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().verdict, Verdict::kRejected);
  EXPECT_EQ(outcome.value().accepted_count(), 0u);
  EXPECT_EQ(world_.sp().stats().tx_accepted, 0u);
}

TEST_F(BatchTest, EmptyBatchRejected) {
  auto outcome = world_.client().submit_batch({});
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.code(), Err::kInvalidArgument);
}

TEST_F(BatchTest, SignaturesAreItemSpecific) {
  // Swapping two signatures between transactions must fail at the SP:
  // each signature binds its own (digest, nonce).
  auto txs = make_batch(2);
  // Drive the protocol manually to intercept.
  core::PalBatchConfirmInput pal_input;
  pal_input.sealed_key = world_.client().sealed_key_blob();
  std::vector<std::uint64_t> tx_ids;
  for (const auto& [summary, payload] : txs) {
    core::TxSubmit submit{"batcher", summary, payload};
    auto challenge = test::begin_transaction(world_.sp(), submit);
    pal_input.items.push_back(
        core::BatchItem{summary, submit.digest(), challenge.nonce});
    tx_ids.push_back(challenge.tx_id);
  }
  pal::SessionDriver driver(world_.platform());
  driver.set_user_agent(&agent_);
  agent_.set_intended_summary(core::batch_summary(pal_input.items));
  auto session =
      driver.run(core::make_trusted_path_pal(), pal_input.marshal());
  ASSERT_TRUE(session.ok());
  auto out = core::PalBatchConfirmOutput::unmarshal(session.value().output);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().verdict, Verdict::kConfirmed);
  ASSERT_EQ(out.value().signatures.size(), 2u);

  // Deliver with swapped signatures.
  for (std::size_t i = 0; i < 2; ++i) {
    core::TxConfirm confirm;
    confirm.client_id = "batcher";
    confirm.tx_id = tx_ids[i];
    confirm.verdict = Verdict::kConfirmed;
    confirm.signature = out.value().signatures[1 - i];  // the swap
    EXPECT_FALSE(test::complete_transaction(world_.sp(), confirm).accepted);
  }
}

TEST(BatchMarshalling, RoundTrip) {
  core::PalBatchConfirmInput in;
  in.items = {{"a", Bytes(32, 1), Bytes(20, 2)},
              {"b", Bytes(32, 3), Bytes(20, 4)}};
  in.sealed_key = Bytes(64, 5);
  in.code_len = 8;
  Bytes wire = in.marshal();
  auto back =
      core::PalBatchConfirmInput::unmarshal(BytesView(wire).subspan(1));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().items.size(), 2u);
  EXPECT_EQ(back.value().items[1].summary, "b");
  EXPECT_EQ(back.value().code_len, 8u);

  core::PalBatchConfirmOutput out;
  out.verdict = Verdict::kConfirmed;
  out.signatures = {Bytes(96, 6), Bytes(96, 7)};
  out.attempts = 1;
  auto out_back = core::PalBatchConfirmOutput::unmarshal(out.marshal());
  ASSERT_TRUE(out_back.ok());
  EXPECT_EQ(out_back.value().signatures.size(), 2u);
}

TEST(BatchMarshalling, RejectsOversizedBatch) {
  core::PalBatchConfirmInput in;
  for (int i = 0; i < 65; ++i) {
    in.items.push_back(core::BatchItem{"x", Bytes(32, 1), Bytes(20, 2)});
  }
  Bytes wire = in.marshal();
  EXPECT_FALSE(
      core::PalBatchConfirmInput::unmarshal(BytesView(wire).subspan(1)).ok());
}

// ------------------------------------------------- Sealed-state rollback

class SealedStateTest : public ::testing::Test {
 protected:
  SealedStateTest()
      : tpm_(tpm::default_chip(), bytes_of("ss"), clock_,
             tpm::TpmDevice::Options{.key_bits = 768}),
        channel_(tpm_, /*counter_id=*/7) {}

  SimClock clock_;
  tpm::TpmDevice tpm_;
  pal::SealedStateChannel channel_;
};

TEST_F(SealedStateTest, SaveLoadRoundTrip) {
  auto blob = channel_.save(tpm::Locality::kPal,
                            tpm::PcrSelection::of({10}), 0xff,
                            bytes_of("balance=100"));
  ASSERT_TRUE(blob.ok());
  auto state = channel_.load(tpm::Locality::kPal, blob.value());
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(string_of(state.value()), "balance=100");
}

TEST_F(SealedStateTest, StaleBlobIsReplay) {
  auto old_blob = channel_.save(tpm::Locality::kPal,
                                tpm::PcrSelection::of({10}), 0xff,
                                bytes_of("limit-not-reached"));
  ASSERT_TRUE(old_blob.ok());
  auto new_blob = channel_.save(tpm::Locality::kPal,
                                tpm::PcrSelection::of({10}), 0xff,
                                bytes_of("limit-reached"));
  ASSERT_TRUE(new_blob.ok());
  // The rollback attack: feed the PAL the pre-limit state.
  EXPECT_EQ(channel_.load(tpm::Locality::kPal, old_blob.value()).code(),
            Err::kReplay);
  // The fresh blob still loads.
  EXPECT_TRUE(channel_.load(tpm::Locality::kPal, new_blob.value()).ok());
}

TEST_F(SealedStateTest, LoadIsRepeatableUntilNextSave) {
  auto blob = channel_.save(tpm::Locality::kPal,
                            tpm::PcrSelection::of({10}), 0xff,
                            bytes_of("s"));
  ASSERT_TRUE(blob.ok());
  EXPECT_TRUE(channel_.load(tpm::Locality::kPal, blob.value()).ok());
  EXPECT_TRUE(channel_.load(tpm::Locality::kPal, blob.value()).ok());
}

TEST_F(SealedStateTest, IndependentChannelsIndependentCounters) {
  pal::SealedStateChannel other(tpm_, 8);
  auto blob = channel_.save(tpm::Locality::kPal,
                            tpm::PcrSelection::of({10}), 0xff, bytes_of("a"));
  ASSERT_TRUE(blob.ok());
  // Saving on ANOTHER channel must not invalidate this one.
  ASSERT_TRUE(other
                  .save(tpm::Locality::kPal, tpm::PcrSelection::of({10}),
                        0xff, bytes_of("b"))
                  .ok());
  EXPECT_TRUE(channel_.load(tpm::Locality::kPal, blob.value()).ok());
}

TEST_F(SealedStateTest, TamperedBlobRejected) {
  auto blob = channel_.save(tpm::Locality::kPal,
                            tpm::PcrSelection::of({10}), 0xff, bytes_of("s"));
  ASSERT_TRUE(blob.ok());
  Bytes tampered = blob.value();
  tampered[tampered.size() / 2] ^= 1;
  EXPECT_EQ(channel_.load(tpm::Locality::kPal, tampered).code(),
            Err::kAuthFail);
}

// -------------------------------------------------- Ownership and OIAP

class OwnershipTest : public ::testing::Test {
 protected:
  OwnershipTest()
      : tpm_(tpm::default_chip(), bytes_of("own"), clock_,
             tpm::TpmDevice::Options{.key_bits = 768}) {}

  // Computes a valid auth for the given params with the given secret.
  Status authorized(std::uint32_t session, const Bytes& params,
                    BytesView secret,
                    const std::function<Status(BytesView, BytesView)>& cmd) {
    auto nonce_even = tpm_.oiap_nonce(session);
    if (!nonce_even.ok()) return nonce_even.error();
    const Bytes nonce_odd(20, 0xab);
    const Bytes auth = tpm::TpmDevice::compute_auth(
        secret, params, nonce_even.value(), nonce_odd);
    return cmd(nonce_odd, auth);
  }

  SimClock clock_;
  tpm::TpmDevice tpm_;
  const Bytes owner_secret_ = bytes_of("owner-password-hash");
};

TEST_F(OwnershipTest, TakeOwnershipOnce) {
  EXPECT_FALSE(tpm_.owned());
  EXPECT_TRUE(tpm_.take_ownership(owner_secret_).ok());
  EXPECT_TRUE(tpm_.owned());
  EXPECT_EQ(tpm_.take_ownership(owner_secret_).code(), Err::kBadState);
  EXPECT_FALSE(tpm_.take_ownership({}).ok());
}

TEST_F(OwnershipTest, OwnerNvDefineWithValidAuth) {
  ASSERT_TRUE(tpm_.take_ownership(owner_secret_).ok());
  auto session = tpm_.oiap_start();
  ASSERT_TRUE(session.ok());
  const std::uint32_t index = 0x10000001;
  const Bytes params = tpm::TpmDevice::owner_nv_define_params(index, 64);
  EXPECT_TRUE(authorized(session.value(), params, owner_secret_,
                         [&](BytesView nonce_odd, BytesView auth) {
                           return tpm_.owner_nv_define(session.value(), index,
                                                       64, nonce_odd, auth);
                         })
                  .ok());
  EXPECT_TRUE(tpm_.nv_write(index, bytes_of("protected data")).ok());
}

TEST_F(OwnershipTest, WrongSecretRejected) {
  ASSERT_TRUE(tpm_.take_ownership(owner_secret_).ok());
  auto session = tpm_.oiap_start();
  ASSERT_TRUE(session.ok());
  const std::uint32_t index = 0x10000002;
  const Bytes params = tpm::TpmDevice::owner_nv_define_params(index, 64);
  EXPECT_EQ(authorized(session.value(), params, bytes_of("wrong"),
                       [&](BytesView nonce_odd, BytesView auth) {
                         return tpm_.owner_nv_define(session.value(), index,
                                                     64, nonce_odd, auth);
                       })
                .code(),
            Err::kAuthFail);
}

TEST_F(OwnershipTest, AuthValueCannotBeReplayed) {
  ASSERT_TRUE(tpm_.take_ownership(owner_secret_).ok());
  auto session = tpm_.oiap_start();
  ASSERT_TRUE(session.ok());
  const std::uint32_t index = 0x10000003;
  const Bytes params = tpm::TpmDevice::owner_nv_define_params(index, 64);

  auto nonce_even = tpm_.oiap_nonce(session.value());
  ASSERT_TRUE(nonce_even.ok());
  const Bytes nonce_odd(20, 0xcd);
  const Bytes auth = tpm::TpmDevice::compute_auth(
      owner_secret_, params, nonce_even.value(), nonce_odd);
  ASSERT_TRUE(
      tpm_.owner_nv_define(session.value(), index, 64, nonce_odd, auth)
          .ok());
  // Same auth again: the even nonce rolled, the HMAC no longer matches.
  EXPECT_EQ(tpm_.owner_nv_define(session.value(), 0x10000004, 64, nonce_odd,
                                 auth)
                .code(),
            Err::kAuthFail);
}

TEST_F(OwnershipTest, ParamsAreBoundByAuth) {
  // An auth computed for one (index, size) must not authorize another.
  ASSERT_TRUE(tpm_.take_ownership(owner_secret_).ok());
  auto session = tpm_.oiap_start();
  ASSERT_TRUE(session.ok());
  auto nonce_even = tpm_.oiap_nonce(session.value());
  const Bytes nonce_odd(20, 1);
  const Bytes auth_for_small = tpm::TpmDevice::compute_auth(
      owner_secret_, tpm::TpmDevice::owner_nv_define_params(0x10000005, 16),
      nonce_even.value(), nonce_odd);
  EXPECT_EQ(tpm_.owner_nv_define(session.value(), 0x10000005, 2048,
                                 nonce_odd, auth_for_small)
                .code(),
            Err::kAuthFail);
}

TEST_F(OwnershipTest, OwnerProtectedRangeEnforced) {
  ASSERT_TRUE(tpm_.take_ownership(owner_secret_).ok());
  auto session = tpm_.oiap_start();
  EXPECT_EQ(tpm_.owner_nv_define(session.value(), 0x100, 64, Bytes(20, 0),
                                 Bytes(20, 0))
                .code(),
            Err::kInvalidArgument);
}

TEST_F(OwnershipTest, UnownedTpmRefusesOwnerCommands) {
  auto session = tpm_.oiap_start();
  EXPECT_EQ(tpm_.owner_nv_define(session.value(), 0x10000006, 64,
                                 Bytes(20, 0), Bytes(20, 0))
                .code(),
            Err::kBadState);
}

TEST_F(OwnershipTest, OwnerClearDestroysSealedStorage) {
  ASSERT_TRUE(tpm_.take_ownership(owner_secret_).ok());
  auto blob = tpm_.seal(tpm::Locality::kOs, tpm::PcrSelection::of({10}),
                        0xff, bytes_of("secret"));
  ASSERT_TRUE(blob.ok());

  auto session = tpm_.oiap_start();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(authorized(session.value(),
                         tpm::TpmDevice::owner_clear_params(), owner_secret_,
                         [&](BytesView nonce_odd, BytesView auth) {
                           return tpm_.owner_clear(session.value(), nonce_odd,
                                                   auth);
                         })
                  .ok());
  EXPECT_FALSE(tpm_.owned());
  // The old blob is permanently dead: new SRK seed.
  EXPECT_EQ(tpm_.unseal(tpm::Locality::kOs, blob.value()).code(),
            Err::kAuthFail);
}

// ----------------------------------------------------- SP baseline mode

TEST(SpBaselineMode, NoDefenseExecutesAnything) {
  sp::SpConfig cfg;
  cfg.golden_pcr17 = core::golden_pcr17();
  cfg.ca_public = crypto::RsaPublicKey{crypto::BigInt(3), crypto::BigInt(3)};
  cfg.require_trusted_path = false;
  sp::ServiceProvider sp(cfg);

  const core::TxSubmit submit{"anyone", "drain the account", bytes_of("x")};
  const auto challenge = test::begin_transaction(sp, submit);
  core::TxConfirm confirm;
  confirm.client_id = "anyone";
  confirm.tx_id = challenge.tx_id;
  confirm.verdict = Verdict::kConfirmed;
  confirm.signature = Bytes(8, 0);  // garbage
  EXPECT_TRUE(test::complete_transaction(sp, confirm).accepted);
  EXPECT_EQ(sp.stats().tx_accepted, 1u);
}

}  // namespace
}  // namespace tp
