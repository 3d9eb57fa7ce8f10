// Robustness and edge-case coverage across modules: the synchronous-RPC
// network pump, lossy links, guard move semantics, TPM corner cases, and
// statistical behaviour of the full protocol under a realistic
// (typo-prone) human.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/trusted_path_pal.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "drtm/late_launch.h"
#include "net/channel.h"
#include "pal/human_agent.h"
#include "pal/session.h"
#include "sp/fleet.h"

namespace tp {
namespace {

// ------------------------------------------------------ Network pump

TEST(NetPump, ServiceAnswersSynchronously) {
  SimClock clock;
  net::Link link(net::NetParams{}, clock, SimRng(1));
  link.b().set_service([](BytesView request) {
    Bytes response = bytes_of("echo:");
    append(response, request);
    return response;
  });
  link.a().send(bytes_of("ping"));
  auto reply = link.a().receive();  // pumps the service transparently
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(string_of(reply.value()), "echo:ping");
}

TEST(NetPump, MultipleQueuedRequestsAllServed) {
  SimClock clock;
  net::Link link(net::NetParams{}, clock, SimRng(2));
  int served = 0;
  link.b().set_service([&served](BytesView) {
    ++served;
    return bytes_of("ok");
  });
  link.a().send(bytes_of("r1"));
  link.a().send(bytes_of("r2"));
  link.a().send(bytes_of("r3"));
  EXPECT_TRUE(link.a().receive().ok());
  EXPECT_TRUE(link.a().receive().ok());
  EXPECT_TRUE(link.a().receive().ok());
  EXPECT_EQ(served, 3);
  EXPECT_EQ(link.a().receive().code(), Err::kTimeout);
}

TEST(NetPump, NoServiceMeansTimeout) {
  SimClock clock;
  net::Link link(net::NetParams{}, clock, SimRng(3));
  link.a().send(bytes_of("ping"));
  EXPECT_EQ(link.a().receive().code(), Err::kTimeout);
}

TEST(NetPump, PumpChargesBothLegsOfLatency) {
  SimClock clock;
  net::NetParams params;
  params.latency_mean_ms = 30;
  params.latency_jitter_ms = 0.001;
  net::Link link(params, clock, SimRng(4));
  link.b().set_service([](BytesView) { return bytes_of("pong"); });
  link.a().send(bytes_of("ping"));
  ASSERT_TRUE(link.a().receive().ok());
  EXPECT_NEAR(clock.now().ns / 1e6, 60.0, 2.0);
}

// -------------------------------------------------------- Lossy links

TEST(LossyLink, ProtocolFailsGracefullyNotCatastrophically) {
  sp::FleetConfig cfg;
  cfg.client_id = "lossy";
  cfg.seed = bytes_of("lossy");
  cfg.tpm_key_bits = 768;
  cfg.client_key_bits = 768;
  cfg.net.loss_prob = 1.0;  // everything drops
  sp::Fleet world(cfg);
  auto status = world.client().enroll();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Err::kTimeout);
  EXPECT_FALSE(world.client().enrolled());
}

TEST(LossyLink, ModerateLossEventuallySucceedsOnRetry) {
  // The client does not retry internally; the caller does. Model a
  // caller-level retry loop against 40% loss.
  sp::FleetConfig cfg;
  cfg.client_id = "retry";
  cfg.seed = bytes_of("retry");
  cfg.tpm_key_bits = 768;
  cfg.client_key_bits = 768;
  cfg.net.loss_prob = 0.4;
  sp::Fleet world(cfg);
  devices::HumanParams hp;
  hp.typo_prob = 0.0;
  pal::HumanAgent agent(devices::HumanModel(hp, SimRng(7)), "pay 1");
  world.client().set_user_agent(&agent);

  bool enrolled = false;
  for (int attempt = 0; attempt < 30 && !enrolled; ++attempt) {
    enrolled = world.client().enroll().ok();
  }
  ASSERT_TRUE(enrolled);

  bool accepted = false;
  for (int attempt = 0; attempt < 30 && !accepted; ++attempt) {
    auto outcome = world.client().submit_transaction("pay 1", {});
    accepted = outcome.ok() && outcome.value().accepted;
  }
  EXPECT_TRUE(accepted);
}

// ------------------------------------------------ LaunchGuard semantics

TEST(LaunchGuard, MoveTransfersCleanupResponsibility) {
  drtm::PlatformConfig pc;
  pc.seed = bytes_of("guard");
  pc.tpm_key_bits = 768;
  drtm::Platform platform(pc);
  drtm::LateLaunch launcher(platform);
  {
    auto guard = launcher.launch(pal::PalDescriptor::make_image("g", 1), {});
    ASSERT_TRUE(guard.ok());
    drtm::LaunchGuard outer = guard.take();
    {
      drtm::LaunchGuard inner = std::move(outer);
      EXPECT_TRUE(platform.in_pal_session());
    }  // inner's destruction ends the session exactly once
    EXPECT_FALSE(platform.in_pal_session());
  }
  // A fresh launch works after the move dance.
  auto again = launcher.launch(pal::PalDescriptor::make_image("g", 1), {});
  EXPECT_TRUE(again.ok());
}

// ------------------------------------------------------- TPM edge cases

class TpmEdge : public ::testing::Test {
 protected:
  TpmEdge()
      : tpm_(tpm::default_chip(), bytes_of("edge"), clock_,
             tpm::TpmDevice::Options{.key_bits = 768}) {}
  SimClock clock_;
  tpm::TpmDevice tpm_;
};

TEST_F(TpmEdge, SealLargePayload) {
  SimRng rng(1);
  const Bytes payload = rng.next_bytes(64 * 1024);
  auto blob = tpm_.seal(tpm::Locality::kOs, tpm::PcrSelection::of({10}),
                        0xff, payload);
  ASSERT_TRUE(blob.ok());
  auto out = tpm_.unseal(tpm::Locality::kOs, blob.value());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), payload);
}

TEST_F(TpmEdge, ManyLoadedKeysCoexist) {
  std::vector<std::uint32_t> handles;
  for (int i = 0; i < 5; ++i) {
    auto wrapped = tpm_.create_wrap_key(tpm::PcrSelection::of({10}));
    ASSERT_TRUE(wrapped.ok());
    auto handle = tpm_.load_key2(wrapped.value());
    ASSERT_TRUE(handle.ok());
    handles.push_back(handle.value());
  }
  // All keys sign; all public keys are distinct.
  std::set<std::string> fingerprints;
  for (std::uint32_t h : handles) {
    EXPECT_TRUE(tpm_.sign(h, bytes_of("m")).ok());
    fingerprints.insert(
        to_hex(tpm_.key_public(h).value().fingerprint()));
  }
  EXPECT_EQ(fingerprints.size(), handles.size());
}

TEST_F(TpmEdge, QuoteWithEmptyExternalData) {
  auto quote = tpm_.quote({}, tpm::PcrSelection::of({0}));
  ASSERT_TRUE(quote.ok());
  EXPECT_TRUE(tpm::verify_quote(tpm_.aik_public(), quote.value(), {}).ok());
  EXPECT_FALSE(
      tpm::verify_quote(tpm_.aik_public(), quote.value(), Bytes(20, 1))
          .ok());
}

TEST_F(TpmEdge, QuoteEmptySelectionRejected) {
  EXPECT_FALSE(tpm_.quote(Bytes(20, 1), tpm::PcrSelection{}).ok());
}

TEST_F(TpmEdge, CountersAreMonotoneAcrossHeavyUse) {
  std::uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    auto v = tpm_.counter_increment(1);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), last + 1);
    last = v.value();
  }
}

TEST_F(TpmEdge, Pcr19To22ExtendRequiresDynamicLocality) {
  const Bytes digest = crypto::Sha1::hash(bytes_of("x"));
  for (std::uint32_t pcr : {19u, 20u, 21u, 22u}) {
    EXPECT_EQ(tpm_.pcr_extend(tpm::Locality::kOs, pcr, digest).code(),
              Err::kIsolationViolation)
        << pcr;
    EXPECT_TRUE(tpm_.pcr_extend(tpm::Locality::kPal, pcr, digest).ok())
        << pcr;
  }
  // Static PCRs extend from anywhere.
  EXPECT_TRUE(tpm_.pcr_extend(tpm::Locality::kLegacy, 0, digest).ok());
}

TEST_F(TpmEdge, SealWithMultiPcrSelection) {
  const auto selection = tpm::PcrSelection::of({0, 5, 10, 17});
  // PCR17 is all-ones pre-launch; sealing to it is legal, releasing
  // works while it is unchanged.
  auto blob = tpm_.seal(tpm::Locality::kOs, selection, 0xff, bytes_of("s"));
  ASSERT_TRUE(blob.ok());
  EXPECT_TRUE(tpm_.unseal(tpm::Locality::kOs, blob.value()).ok());
}

// ------------------------------------------------ RSA parameter sweep

class RsaSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsaSizes, SignVerifyEncryptDecrypt) {
  auto drbg = std::make_shared<crypto::HmacDrbg>(
      bytes_of("rsa-sizes" + std::to_string(GetParam())));
  auto rand = [drbg](std::size_t n) { return drbg->generate(n); };
  const auto key = crypto::rsa_generate(GetParam(), rand);
  EXPECT_EQ(key.n.bit_length(), GetParam());

  const Bytes msg = bytes_of("message");
  const Bytes sig = rsa_sign(key, crypto::HashAlg::kSha256, msg);
  EXPECT_TRUE(
      rsa_verify(key.public_key(), crypto::HashAlg::kSha256, msg, sig).ok());

  auto ct = rsa_encrypt(key.public_key(), bytes_of("k"), rand);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(string_of(crypto::rsa_decrypt(key, ct.value()).value()), "k");
}

INSTANTIATE_TEST_SUITE_P(Sizes, RsaSizes, ::testing::Values(512, 768, 1024));

// --------------------------------- Realistic human, statistical checks

TEST(RealisticHuman, TyposRetryButConfirmEventually) {
  sp::FleetConfig cfg;
  cfg.client_id = "realistic";
  cfg.seed = bytes_of("realistic");
  cfg.tpm_key_bits = 768;
  cfg.client_key_bits = 768;
  sp::Fleet world(cfg);

  devices::HumanParams hp;  // default 2% typo rate, 95% attention
  pal::HumanAgent agent(devices::HumanModel(hp, SimRng(55)), "");
  world.client().set_user_agent(&agent);
  ASSERT_TRUE(world.client().enroll().ok());

  int accepted = 0;
  const int kTx = 40;
  for (int i = 0; i < kTx; ++i) {
    const std::string summary = "pay " + std::to_string(i);
    agent.set_intended_summary(summary);
    auto outcome = world.client().submit_transaction(summary, {});
    ASSERT_TRUE(outcome.ok());
    if (outcome.value().accepted) ++accepted;
  }
  // With 3 attempts and a 2%-per-char typo rate, the failure probability
  // per transaction is ~(1-0.886)^3 < 0.2%; all 40 should pass, allow 1.
  EXPECT_GE(accepted, kTx - 1);
}

TEST(RealisticHuman, SessionTimesVaryButStayHumanScale) {
  sp::FleetConfig cfg;
  cfg.client_id = "timing";
  cfg.seed = bytes_of("timing");
  cfg.tpm_key_bits = 768;
  cfg.client_key_bits = 768;
  sp::Fleet world(cfg);
  devices::HumanParams hp;
  hp.typo_prob = 0.0;
  pal::HumanAgent agent(devices::HumanModel(hp, SimRng(66)), "");
  world.client().set_user_agent(&agent);
  ASSERT_TRUE(world.client().enroll().ok());

  double min_user = 1e18, max_user = 0;
  for (int i = 0; i < 10; ++i) {
    const std::string summary = "pay " + std::to_string(i);
    agent.set_intended_summary(summary);
    auto outcome = world.client().submit_transaction(summary, {});
    ASSERT_TRUE(outcome.ok());
    const double user_s = outcome.value().timing.user.to_seconds();
    min_user = std::min(min_user, user_s);
    max_user = std::max(max_user, user_s);
  }
  EXPECT_GT(min_user, 0.5);   // nobody confirms in under half a second
  EXPECT_LT(max_user, 15.0);  // and nobody takes a quarter hour
  EXPECT_NE(min_user, max_user);  // the human model actually varies
}

// ------------------------------------------ Harness determinism

TEST(Determinism, SameSeedSameOutcomeBytes) {
  auto run = [](const char* seed) {
    sp::FleetConfig cfg;
    cfg.client_id = "det";
    cfg.seed = bytes_of(seed);
    cfg.tpm_key_bits = 768;
    cfg.client_key_bits = 768;
    sp::Fleet world(cfg);
    devices::HumanParams hp;
    hp.typo_prob = 0.0;
    pal::HumanAgent agent(devices::HumanModel(hp, SimRng(1)), "pay 1");
    world.client().set_user_agent(&agent);
    EXPECT_TRUE(world.client().enroll().ok());
    return std::make_pair(world.client().confirmation_pubkey(),
                          world.platform().clock().now().ns);
  };
  const auto a = run("seed-A");
  const auto b = run("seed-A");
  const auto c = run("seed-B");
  EXPECT_EQ(a.first, b.first);   // same key material
  EXPECT_EQ(a.second, b.second); // same virtual timeline, to the ns
  EXPECT_NE(a.first, c.first);
}

}  // namespace
}  // namespace tp
