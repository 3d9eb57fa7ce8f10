// Property-based tests: parameterized sweeps over the invariants listed
// in DESIGN.md ("Security invariants"), plus algebraic laws of the
// bignum layer. TEST_P keeps each law tested across the whole parameter
// grid rather than at hand-picked points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/trusted_path_pal.h"
#include "crypto/bignum.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "crypto/drbg.h"
#include "pal/human_agent.h"
#include "pal/session.h"
#include "sp/deployment.h"
#include "tpm/tpm_device.h"

namespace tp {
namespace {

std::function<Bytes(std::size_t)> entropy(const std::string& label) {
  auto drbg = std::make_shared<crypto::HmacDrbg>(bytes_of("prop:" + label));
  return [drbg](std::size_t n) { return drbg->generate(n); };
}

// ----------------------------------------------------- BigInt laws

class BigIntLaws : public ::testing::TestWithParam<std::size_t> {
 protected:
  crypto::BigInt random_of_size(const std::function<Bytes(std::size_t)>& e) {
    return crypto::BigInt::from_bytes_be(e((GetParam() + 7) / 8));
  }
};

TEST_P(BigIntLaws, AddSubInverse) {
  auto e = entropy("addsub" + std::to_string(GetParam()));
  for (int i = 0; i < 30; ++i) {
    const auto a = random_of_size(e);
    const auto b = random_of_size(e);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a + b) - a, b);
  }
}

TEST_P(BigIntLaws, MulDivInverse) {
  auto e = entropy("muldiv" + std::to_string(GetParam()));
  for (int i = 0; i < 30; ++i) {
    const auto a = random_of_size(e);
    auto b = random_of_size(e);
    if (b.is_zero()) b = crypto::BigInt(1);
    EXPECT_EQ((a * b) / b, a);
    EXPECT_TRUE(((a * b) % b).is_zero());
  }
}

TEST_P(BigIntLaws, MulCommutesAndDistributes) {
  auto e = entropy("ring" + std::to_string(GetParam()));
  for (int i = 0; i < 20; ++i) {
    const auto a = random_of_size(e);
    const auto b = random_of_size(e);
    const auto c = random_of_size(e);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST_P(BigIntLaws, ModExpExponentAddition) {
  // a^(e1+e2) == a^e1 * a^e2 (mod m), exercising the Montgomery path.
  auto e = entropy("expadd" + std::to_string(GetParam()));
  for (int i = 0; i < 10; ++i) {
    auto m = random_of_size(e);
    if (m.is_zero()) m = crypto::BigInt(7);
    if (m.is_even()) m = m + crypto::BigInt(1);
    if (m == crypto::BigInt(1)) m = crypto::BigInt(3);
    const auto a = random_of_size(e);
    const auto e1 = crypto::BigInt::from_bytes_be(e(3));
    const auto e2 = crypto::BigInt::from_bytes_be(e(3));
    const auto lhs = crypto::BigInt::mod_exp(a, e1 + e2, m);
    const auto rhs = crypto::BigInt::mod_mul(
        crypto::BigInt::mod_exp(a, e1, m), crypto::BigInt::mod_exp(a, e2, m),
        m);
    EXPECT_EQ(lhs, rhs) << "bits=" << GetParam() << " i=" << i;
  }
}

TEST_P(BigIntLaws, ShiftsAreMulDivByPowersOfTwo) {
  auto e = entropy("shift" + std::to_string(GetParam()));
  for (std::size_t k : {1u, 7u, 31u, 32u, 33u, 64u}) {
    const auto a = random_of_size(e);
    const auto p = crypto::BigInt(1) << k;
    EXPECT_EQ(a << k, a * p);
    EXPECT_EQ(a >> k, a / p);
  }
}

TEST_P(BigIntLaws, ByteRoundTripAnySize) {
  auto e = entropy("bytes" + std::to_string(GetParam()));
  for (int i = 0; i < 20; ++i) {
    const auto a = random_of_size(e);
    EXPECT_EQ(crypto::BigInt::from_bytes_be(a.to_bytes_be()), a);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BigIntLaws,
                         ::testing::Values(32, 64, 128, 256, 512, 1024));

TEST_P(BigIntLaws, SmallExponentPathMatchesWindowed) {
  // The small-exponent fast path and the 4-bit windowed path must agree
  // for every exponent, in particular across the kSmallExpBits boundary
  // where mod_exp switches between them.
  auto e = entropy("smallexp" + std::to_string(GetParam()));
  auto m = random_of_size(e);
  if (m.is_even()) m = m + crypto::BigInt(1);
  if (m < crypto::BigInt(3)) m = crypto::BigInt(0x10001);
  const crypto::MontgomeryCtx ctx(m);

  const std::uint64_t boundary = 1ull << crypto::MontgomeryCtx::kSmallExpBits;
  std::vector<crypto::BigInt> exps = {
      crypto::BigInt(1),        crypto::BigInt(2),
      crypto::BigInt(3),        crypto::BigInt(65537),
      crypto::BigInt(boundary - 1),  // widest exponent on the small path
      crypto::BigInt(boundary),      // first exponent on the windowed path
      crypto::BigInt(boundary + 1),
  };
  for (int i = 0; i < 6; ++i) {
    exps.push_back(crypto::BigInt::from_bytes_be(e(3)));  // <= 24 bits
    exps.push_back(crypto::BigInt::from_bytes_be(e(5)));  // > 24 bits
  }
  for (const auto& exp : exps) {
    const auto base = random_of_size(e);
    const auto via_ctx = ctx.mod_exp(base, exp);
    const auto via_windowed = ctx.mod_exp_windowed(base, exp);
    EXPECT_EQ(via_ctx, via_windowed)
        << "exp bits=" << exp.bit_length();
    EXPECT_EQ(via_ctx, crypto::BigInt::mod_exp(base, exp, m))
        << "exp bits=" << exp.bit_length();
  }
}

// ------------------------------------------ RSA verify-context parity

class RsaVerifyCtxParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsaVerifyCtxParity, CachedVerifyAgreesWithUncached) {
  // The per-key cached context must return bit-identical verdicts to the
  // free function: on genuine signatures, corrupted signatures, wrong
  // messages, and wrong-length inputs.
  auto e = entropy("vctx" + std::to_string(GetParam()));
  const auto key = crypto::rsa_generate(GetParam(), e);
  const crypto::RsaVerifyContext ctx(key.public_key());

  for (int i = 0; i < 8; ++i) {
    const Bytes msg = e(1 + (static_cast<std::size_t>(i) * 17) % 100);
    Bytes sig = crypto::rsa_sign(key, crypto::HashAlg::kSha256, msg);

    EXPECT_TRUE(ctx.verify(crypto::HashAlg::kSha256, msg, sig).ok());
    EXPECT_TRUE(crypto::rsa_verify(key.public_key(), crypto::HashAlg::kSha256,
                                   msg, sig)
                    .ok());

    // Single-bit corruption anywhere in the signature must fail both.
    Bytes bad = sig;
    bad[(static_cast<std::size_t>(i) * 31) % bad.size()] ^= 0x40;
    EXPECT_EQ(ctx.verify(crypto::HashAlg::kSha256, msg, bad).ok(),
              crypto::rsa_verify(key.public_key(), crypto::HashAlg::kSha256,
                                 msg, bad)
                  .ok());
    EXPECT_FALSE(ctx.verify(crypto::HashAlg::kSha256, msg, bad).ok());

    // Wrong message.
    const Bytes other = concat(msg, bytes_of("x"));
    EXPECT_FALSE(ctx.verify(crypto::HashAlg::kSha256, other, sig).ok());

    // Truncated signature.
    Bytes trunc(sig.begin(), sig.end() - 1);
    EXPECT_FALSE(ctx.verify(crypto::HashAlg::kSha256, msg, trunc).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RsaVerifyCtxParity,
                         ::testing::Values(512, 768, 1024));

// ------------------------------------------- Seal/unseal policy matrix

struct SealCase {
  std::uint8_t locality_mask;
  tpm::Locality attempt;
  bool should_release;  // assuming PCRs match
};

class SealPolicyMatrix : public ::testing::TestWithParam<SealCase> {};

TEST_P(SealPolicyMatrix, LocalityMaskHonoured) {
  SimClock clock;
  tpm::TpmDevice tpm(tpm::default_chip(), bytes_of("seal-matrix"), clock,
                     tpm::TpmDevice::Options{.key_bits = 768});
  const auto& param = GetParam();
  auto blob = tpm.seal(tpm::Locality::kOs, tpm::PcrSelection::of({10}),
                       param.locality_mask, bytes_of("payload"));
  ASSERT_TRUE(blob.ok());
  auto out = tpm.unseal(param.attempt, blob.value());
  if (param.should_release) {
    ASSERT_TRUE(out.ok()) << out.error().to_string();
    EXPECT_EQ(string_of(out.value()), "payload");
  } else {
    EXPECT_EQ(out.code(), Err::kIsolationViolation);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SealPolicyMatrix,
    ::testing::Values(
        // PAL-only blob.
        SealCase{1u << 2, tpm::Locality::kPal, true},
        SealCase{1u << 2, tpm::Locality::kOs, false},
        SealCase{1u << 2, tpm::Locality::kLegacy, false},
        // OS-only blob.
        SealCase{1u << 1, tpm::Locality::kOs, true},
        SealCase{1u << 1, tpm::Locality::kPal, false},
        // Anything-goes blob.
        SealCase{0xff, tpm::Locality::kLegacy, true},
        SealCase{0xff, tpm::Locality::kDrtmHardware, true},
        // Nobody blob (mask 0): sealed forever.
        SealCase{0x00, tpm::Locality::kPal, false},
        SealCase{0x00, tpm::Locality::kOs, false}));

// ---------------------------------------- Unseal vs PCR perturbation

class UnsealPcrSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(UnsealPcrSweep, AnySelectedPcrChangeBlocksRelease) {
  SimClock clock;
  tpm::TpmDevice tpm(tpm::default_chip(), bytes_of("pcr-sweep"), clock,
                     tpm::TpmDevice::Options{.key_bits = 768});
  const auto selection = tpm::PcrSelection::of({4, 10, 14});
  auto blob = tpm.seal(tpm::Locality::kOs, selection, 0xff, bytes_of("s"));
  ASSERT_TRUE(blob.ok());

  const std::uint32_t touched = GetParam();
  (void)tpm.pcr_extend(tpm::Locality::kOs, touched,
                       crypto::Sha1::hash(bytes_of("perturbation")));
  auto out = tpm.unseal(tpm::Locality::kOs, blob.value());
  const bool selected = touched == 4 || touched == 10 || touched == 14;
  if (selected) {
    EXPECT_EQ(out.code(), Err::kPcrMismatch) << "pcr " << touched;
  } else {
    EXPECT_TRUE(out.ok()) << "pcr " << touched;
  }
}

INSTANTIATE_TEST_SUITE_P(Pcrs, UnsealPcrSweep,
                         ::testing::Values(0, 4, 5, 9, 10, 11, 14, 15));

// --------------------------------- Confirmation across parameter grid

struct ConfirmCase {
  std::uint32_t code_len;
  std::uint32_t max_attempts;
  const char* chip;
};

// Prints a case from its fields. gtest would otherwise print the raw bytes,
// chip pointer included, and gtest_discover_tests puts the printed value in
// the ctest name, which then changed from run to run.
void PrintTo(const ConfirmCase& c, std::ostream* os) {
  std::string chip = c.chip;
  std::replace(chip.begin(), chip.end(), ' ', '_');
  *os << chip << "_len" << c.code_len << "_tries" << c.max_attempts;
}

class ConfirmGrid : public ::testing::TestWithParam<ConfirmCase> {};

TEST_P(ConfirmGrid, HappyPathHoldsEverywhere) {
  const auto& param = GetParam();
  sp::DeploymentConfig cfg;
  cfg.client_id = "grid";
  cfg.chip_name = param.chip;
  cfg.seed = bytes_of(std::string("grid:") + param.chip +
                      std::to_string(param.code_len));
  cfg.tpm_key_bits = 768;
  cfg.client_key_bits = 768;
  sp::Deployment world(cfg);

  devices::HumanParams hp;
  hp.typo_prob = 0.0;
  pal::HumanAgent agent(devices::HumanModel(hp, SimRng(param.code_len)),
                        "pay 1 EUR");
  world.client().set_user_agent(&agent);
  ASSERT_TRUE(world.client().enroll().ok());
  auto outcome = world.client().submit_transaction("pay 1 EUR", {});
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().accepted);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConfirmGrid,
    ::testing::Values(ConfirmCase{1, 1, "Infineon SLB9635"},
                      ConfirmCase{4, 3, "Infineon SLB9635"},
                      ConfirmCase{12, 3, "Infineon SLB9635"},
                      ConfirmCase{6, 1, "Broadcom BCM5752"},
                      ConfirmCase{6, 3, "Atmel AT97SC3203"},
                      ConfirmCase{6, 5, "STMicro ST19NP18"}));

// ------------------------------ Quote verification across selections

class QuoteSelectionSweep
    : public ::testing::TestWithParam<std::vector<std::uint32_t>> {};

TEST_P(QuoteSelectionSweep, QuoteBindsExactSelection) {
  SimClock clock;
  tpm::TpmDevice tpm(tpm::default_chip(), bytes_of("quote-sweep"), clock,
                     tpm::TpmDevice::Options{.key_bits = 768});
  tpm::PcrSelection selection;
  selection.indices = GetParam();
  (void)tpm.pcr_extend(tpm::Locality::kOs, 3,
                       crypto::Sha1::hash(bytes_of("boot")));
  const Bytes nonce(20, 0x3c);
  auto quote = tpm.quote(nonce, selection);
  ASSERT_TRUE(quote.ok());
  EXPECT_TRUE(tpm::verify_quote(tpm.aik_public(), quote.value(), nonce).ok());

  // Dropping or adding one PCR from the reported set must break it.
  tpm::QuoteResult mutated = quote.value();
  mutated.pcr_values.back()[0] ^= 1;
  EXPECT_FALSE(
      tpm::verify_quote(tpm.aik_public(), mutated, nonce).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Selections, QuoteSelectionSweep,
    ::testing::Values(std::vector<std::uint32_t>{0},
                      std::vector<std::uint32_t>{3},
                      std::vector<std::uint32_t>{17},
                      std::vector<std::uint32_t>{17, 18},
                      std::vector<std::uint32_t>{0, 3, 17, 18, 23}));

// ------------------------------------------ Human typo-rate behaviour

class TypoRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(TypoRateSweep, ObservedRateTracksParameter) {
  devices::HumanParams p;
  p.typo_prob = GetParam();
  devices::HumanModel human(p, SimRng(77));
  int wrong = 0;
  const int kTrials = 600;
  for (int i = 0; i < kTrials; ++i) {
    devices::Keyboard kb;
    (void)human.respond_to_confirmation(
        devices::DisplayContent{{"TX: t", "CODE: abcd"}}, "t", kb);
    if (kb.read_line() != "abcd") ++wrong;
  }
  const double expected = 1.0 - std::pow(1.0 - GetParam(), 4);
  EXPECT_NEAR(wrong / static_cast<double>(kTrials), expected, 0.07);
}

INSTANTIATE_TEST_SUITE_P(Rates, TypoRateSweep,
                         ::testing::Values(0.0, 0.02, 0.1, 0.3));

}  // namespace
}  // namespace tp
