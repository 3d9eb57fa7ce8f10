// TPM 2.0 / ECC backend suites (`ctest -L tpm2`).
//
// Layered like the subsystem itself: P-256 curve known answers (FIPS
// 186-4 / RFC 6979 A.2.5 vectors), signed-digit table walks against the
// double-and-add reference, ECDSA sign/verify with fixed and
// deterministic nonces, differential fuzz of the cached and one-shot
// verifiers against a double-and-add oracle, then the tpm2 device,
// quote format, and mixed-fleet end-to-end coverage.

#include <gtest/gtest.h>

#include "core/messages.h"
#include "crypto/drbg.h"
#include "crypto/ecdsa.h"
#include "crypto/p256.h"
#include "crypto/sha256.h"
#include "pal/human_agent.h"
#include "sp/fleet.h"
#include "tpm/chip_profile.h"
#include "tpm/privacy_ca.h"
#include "tpm/tpm2_device.h"

namespace tp {
namespace {

namespace p256 = crypto::p256;

// RFC 6979 A.2.5: P-256 key used for all SHA-256 signing vectors.
constexpr const char* kRfcD =
    "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721";
constexpr const char* kRfcUx =
    "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6";
constexpr const char* kRfcUy =
    "7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299";

// message = "sample", SHA-256
constexpr const char* kSampleK =
    "a6e3c57dd01abe90086538398355dd4c3b17aa873382b0f24d6129493d8aad60";
constexpr const char* kSampleR =
    "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716";
constexpr const char* kSampleS =
    "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8";

// message = "test", SHA-256
constexpr const char* kTestK =
    "d16b6ae827f17175e040871a1c7ec3500192c4c92677336ec2537acaee0008e0";
constexpr const char* kTestR =
    "f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367";
constexpr const char* kTestS =
    "019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083";

crypto::EcdsaPrivateKey rfc_key() {
  crypto::EcdsaPrivateKey key;
  key.d = from_hex(kRfcD);
  key.public_half.x = from_hex(kRfcUx);
  key.public_half.y = from_hex(kRfcUy);
  return key;
}

crypto::EcdsaPrivateKey random_key(crypto::HmacDrbg& rng) {
  return crypto::ecdsa_generate(
      [&rng](std::size_t n) { return rng.generate(n); });
}

p256::AffinePoint point_of(const crypto::EcdsaPublicKey& key) {
  p256::AffinePoint q;
  q.x = p256::from_bytes_be(key.x);
  q.y = p256::from_bytes_be(key.y);
  q.infinity = false;
  return q;
}

p256::U256 small(std::uint64_t v) {
  p256::U256 k{};
  k.w[0] = v;
  return k;
}

/// The double-and-add verify that ecdsa_verify ran before its windowed
/// walk, kept as an oracle: the Fermat inversion of s, two independent
/// scalar_mul calls and a full affine conversion. Same verdicts and
/// codes as ecdsa_verify.
Err reference_verify(const crypto::EcdsaPublicKey& key, BytesView message,
                     BytesView signature) {
  if (signature.size() != crypto::kEcdsaSignatureSize ||
      key.x.size() != p256::kFieldSize || key.y.size() != p256::kFieldSize) {
    return Err::kAuthFail;
  }
  const p256::U256 r =
      p256::from_bytes_be(signature.subspan(0, p256::kFieldSize));
  const p256::U256 s =
      p256::from_bytes_be(signature.subspan(p256::kFieldSize));
  for (const p256::U256& v : {r, s}) {
    if (v.is_zero() || !p256::u256_less(v, p256::order_n())) {
      return Err::kAuthFail;
    }
  }
  const p256::AffinePoint q = point_of(key);
  if (!p256::on_curve(q)) return Err::kAuthFail;
  const p256::U256 e = p256::reduce_mod_n(
      p256::from_bytes_be(crypto::Sha256::hash(message)));
  const p256::U256 w = p256::inv_mod_n(s);
  const p256::AffinePoint sum = p256::point_add(
      p256::scalar_mul(p256::generator(), p256::mul_mod_n(e, w)),
      p256::scalar_mul(q, p256::mul_mod_n(r, w)));
  return !sum.infinity && p256::reduce_mod_n(sum.x) == r ? Err::kNone
                                                         : Err::kAuthFail;
}

// ---- P-256 curve known answers ----------------------------------------

TEST(P256KnownAnswer, GeneratorScalarMulMatchesRfcKey) {
  const p256::U256 d = p256::from_bytes_be(from_hex(kRfcD));
  const p256::AffinePoint q = p256::scalar_mul(p256::generator(), d);
  ASSERT_FALSE(q.infinity);
  EXPECT_EQ(to_hex(p256::to_bytes_be(q.x)), kRfcUx);
  EXPECT_EQ(to_hex(p256::to_bytes_be(q.y)), kRfcUy);
}

TEST(P256KnownAnswer, TablePathAgreesWithReferenceForBasePoint) {
  const p256::U256 d = p256::from_bytes_be(from_hex(kRfcD));
  const p256::AffinePoint q = p256::scalar_mul_base(d);
  ASSERT_FALSE(q.infinity);
  EXPECT_EQ(to_hex(p256::to_bytes_be(q.x)), kRfcUx);
  EXPECT_EQ(to_hex(p256::to_bytes_be(q.y)), kRfcUy);
}

TEST(P256KnownAnswer, OrderTimesGeneratorIsInfinity) {
  const p256::AffinePoint q =
      p256::scalar_mul(p256::generator(), p256::order_n());
  EXPECT_TRUE(q.infinity);
  const p256::AffinePoint qt = p256::scalar_mul_base(p256::order_n());
  EXPECT_TRUE(qt.infinity);
}

TEST(P256, GeneratorIsOnCurveAndPerturbationsAreNot) {
  EXPECT_TRUE(p256::on_curve(p256::generator()));

  p256::AffinePoint off = p256::generator();
  off.y.w[0] ^= 1;  // y -> y ^ 1 leaves the curve
  EXPECT_FALSE(p256::on_curve(off));

  p256::AffinePoint big = p256::generator();
  big.x = p256::prime_p();  // coordinate >= p is malformed
  EXPECT_FALSE(p256::on_curve(big));

  EXPECT_FALSE(p256::on_curve(p256::AffinePoint{}));  // infinity
}

TEST(P256, AdditionIdentities) {
  const p256::AffinePoint& g = p256::generator();
  const p256::AffinePoint inf;

  // G + 0 = G
  const p256::AffinePoint sum = p256::point_add(g, inf);
  EXPECT_EQ(sum.x, g.x);
  EXPECT_EQ(sum.y, g.y);
  EXPECT_FALSE(sum.infinity);

  // G + (-G) = 0, where -G = (n-1)G has the same x and negated y.
  p256::U256 n_minus_1 = p256::order_n();
  n_minus_1.w[0] -= 1;  // n is odd; no borrow
  const p256::AffinePoint negated = p256::scalar_mul(g, n_minus_1);
  ASSERT_TRUE(p256::on_curve(negated));
  EXPECT_EQ(negated.x, g.x);
  EXPECT_TRUE(p256::point_add(g, negated).infinity);

  // G + G = 2G = scalar_mul(G, 2)
  p256::U256 two{};
  two.w[0] = 2;
  const p256::AffinePoint dbl = p256::scalar_mul(g, two);
  const p256::AffinePoint added = p256::point_add(g, g);
  EXPECT_EQ(added.x, dbl.x);
  EXPECT_EQ(added.y, dbl.y);
}

TEST(P256, WindowTableMatchesReferenceOnRandomPoints) {
  crypto::HmacDrbg rng(bytes_of("tpm2-test:table"));
  // Edge scalars for the signed 4-bit table: 1, n - 1, every nibble 0xF
  // (above n, so the walk reduces it first), and scalars with a single
  // non-zero window d * 16^j at the limb boundaries (d = 15 recodes to
  // -1 with a carry into the next window).
  std::vector<p256::U256> edges;
  p256::U256 one{};
  one.w[0] = 1;
  edges.push_back(one);
  p256::U256 n_minus_1 = p256::order_n();
  n_minus_1.w[0] -= 1;  // n is odd; no borrow
  edges.push_back(n_minus_1);
  p256::U256 all_f{};
  for (auto& limb : all_f.w) limb = ~std::uint64_t{0};
  edges.push_back(all_f);
  for (const auto& [digit, window] :
       std::vector<std::pair<std::uint64_t, int>>{{1, 0},
                                                  {15, 0},
                                                  {1, 1},
                                                  {8, 15},
                                                  {15, 16},
                                                  {1, 31},
                                                  {15, 32},
                                                  {8, 48},
                                                  {1, 63},
                                                  {15, 63}}) {
    p256::U256 k{};
    k.w[window / 16] = digit << (4 * (window % 16));
    edges.push_back(k);
  }
  for (int i = 0; i < 4; ++i) {
    const p256::AffinePoint q = point_of(random_key(rng).public_key());
    ASSERT_TRUE(p256::on_curve(q));
    const p256::WindowTable table(q);
    std::vector<p256::U256> scalars = edges;
    for (int j = 0; j < 4; ++j) {
      scalars.push_back(
          p256::reduce_mod_n(p256::from_bytes_be(rng.generate(32))));
    }
    for (const p256::U256& k : scalars) {
      const p256::AffinePoint ref = p256::scalar_mul(q, k);
      const p256::AffinePoint fast = p256::table_scalar_mul(table, k);
      EXPECT_EQ(ref.infinity, fast.infinity);
      EXPECT_EQ(ref.x, fast.x);
      EXPECT_EQ(ref.y, fast.y);
    }
  }
}

TEST(P256, SignedRecodingEdgeScalarsMatchReference) {
  // Every walk over signed digits against scalar_mul, at the scalars
  // where the recoding's fold and carries turn: the per-key table
  // (w = 4), the generator table (w = 12, through scalar_mul_base), and
  // both verify walks -- the one-shot's Horner walk over u2 and the
  // cached walk -- each checked with the edge scalar as u2 and as u1.
  const p256::U256& n = p256::order_n();
  const auto sub = [](const p256::U256& a, const p256::U256& b) {
    // a - b for a >= b, limb by limb with borrow.
    p256::U256 out;
    std::uint64_t borrow = 0;
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t d = a.w[i] - b.w[i] - borrow;
      borrow = (a.w[i] < b.w[i] || (a.w[i] == b.w[i] && borrow)) ? 1 : 0;
      out.w[i] = d;
    }
    return out;
  };
  p256::U256 two_255{};
  two_255.w[3] = std::uint64_t{1} << 63;
  const auto nibbles = [](std::uint64_t low, std::uint64_t rest,
                          std::uint64_t top) {
    // Low nibble `low`, every other nibble `rest`, except the top one.
    p256::U256 k;
    for (auto& limb : k.w) limb = rest * 0x1111111111111111ull;
    k.w[0] = (k.w[0] & ~std::uint64_t{0xF}) | low;
    k.w[3] = (k.w[3] & ~(std::uint64_t{0xF} << 60)) | (top << 60);
    return k;
  };
  const auto windows12 = [](std::uint64_t low, std::uint64_t rest) {
    // 12-bit window 0 = low, windows 1..20 = rest, bits 252..254 set.
    p256::U256 k{};
    for (int j = 0; j < 21; ++j) {
      const std::uint64_t v = j == 0 ? low : rest;
      const int bit = 12 * j;
      k.w[bit / 64] |= v << (bit % 64);
      if (bit % 64 > 52) k.w[bit / 64 + 1] |= v >> (64 - bit % 64);
    }
    k.w[3] |= std::uint64_t{7} << 60;
    return k;
  };
  // 0x7888...89 carries through all 64 windows and ends on the top
  // digit's limit, 8; every nibble 8 or 9 sits above 2^255 and folds.
  const p256::U256 carry_chain = nibbles(9, 8, 7);
  const std::vector<p256::U256> edges = {
      small(1), small(2), small(8), small(9),
      sub(n, small(1)), sub(n, small(2)),
      sub(two_255, small(1)), two_255, p256::add_mod_n(two_255, small(1)),
      sub(sub(n, two_255), small(1)), sub(n, two_255),
      p256::add_mod_n(sub(n, two_255), small(1)),
      nibbles(9, 8, 8), nibbles(9, 9, 9), carry_chain, sub(n, carry_chain),
      windows12(0x800, 0x800), windows12(0x801, 0x801),
      windows12(0x801, 0x7FF)};

  crypto::HmacDrbg rng(bytes_of("tpm2-test:edges"));
  const p256::AffinePoint q = point_of(random_key(rng).public_key());
  const p256::WindowTable table(q);
  const p256::U256 other =
      p256::reduce_mod_n(p256::from_bytes_be(rng.generate(32)));
  for (const p256::U256& k : edges) {
    SCOPED_TRACE(to_hex(p256::to_bytes_be(k)));
    const p256::AffinePoint kq = p256::scalar_mul(q, k);
    const p256::AffinePoint fast_q = p256::table_scalar_mul(table, k);
    EXPECT_EQ(fast_q.infinity, kq.infinity);
    EXPECT_EQ(fast_q.x, kq.x);
    EXPECT_EQ(fast_q.y, kq.y);
    const p256::AffinePoint kg = p256::scalar_mul(p256::generator(), k);
    const p256::AffinePoint fast_g = p256::scalar_mul_base(k);
    EXPECT_EQ(fast_g.infinity, kg.infinity);
    EXPECT_EQ(fast_g.x, kg.x);
    EXPECT_EQ(fast_g.y, kg.y);
    // R = other*G + k*Q, then R = k*G + other*Q: a digit of the wrong
    // sign moves x(R), which a lone k*Q would not show.
    const p256::AffinePoint as_u2 = p256::point_add(
        p256::scalar_mul(p256::generator(), other), kq);
    const p256::AffinePoint as_u1 =
        p256::point_add(kg, p256::scalar_mul(q, other));
    ASSERT_FALSE(as_u2.infinity);
    ASSERT_FALSE(as_u1.infinity);
    const p256::U256 r2 = p256::reduce_mod_n(as_u2.x);
    const p256::U256 r1 = p256::reduce_mod_n(as_u1.x);
    EXPECT_TRUE(p256::verify_r_match(q, other, k, r2));
    EXPECT_TRUE(p256::verify_r_match(table, other, k, r2));
    EXPECT_TRUE(p256::verify_r_match(q, k, other, r1));
    EXPECT_TRUE(p256::verify_r_match(table, k, other, r1));
    EXPECT_FALSE(p256::verify_r_match(q, other, k, r1));
  }
}

// ---- ECDSA known answers ----------------------------------------------

TEST(EcdsaKnownAnswer, FixedNonceSampleVector) {
  const crypto::EcdsaPrivateKey key = rfc_key();
  const Bytes digest = crypto::Sha256::hash(bytes_of("sample"));
  auto sig = crypto::ecdsa_sign_digest_with_k(key, digest, from_hex(kSampleK));
  ASSERT_TRUE(sig.ok()) << sig.error().to_string();
  EXPECT_EQ(to_hex(sig.value()), std::string(kSampleR) + kSampleS);
}

TEST(EcdsaKnownAnswer, FixedNonceTestVector) {
  const crypto::EcdsaPrivateKey key = rfc_key();
  const Bytes digest = crypto::Sha256::hash(bytes_of("test"));
  auto sig = crypto::ecdsa_sign_digest_with_k(key, digest, from_hex(kTestK));
  ASSERT_TRUE(sig.ok()) << sig.error().to_string();
  EXPECT_EQ(to_hex(sig.value()), std::string(kTestR) + kTestS);
}

TEST(EcdsaKnownAnswer, DeterministicNonceReproducesRfc6979) {
  // Full RFC 6979 pipeline: our SP 800-90A HMAC-DRBG seeded with
  // int2octets(d) || bits2octets(H(m)) must yield the RFC's k, hence
  // the RFC's exact signature.
  const crypto::EcdsaPrivateKey key = rfc_key();
  EXPECT_EQ(to_hex(crypto::ecdsa_sign(key, bytes_of("sample"))),
            std::string(kSampleR) + kSampleS);
  EXPECT_EQ(to_hex(crypto::ecdsa_sign(key, bytes_of("test"))),
            std::string(kTestR) + kTestS);
}

TEST(EcdsaKnownAnswer, VerifyAcceptsVectorAndRejectsPerturbations) {
  const crypto::EcdsaPrivateKey key = rfc_key();
  const Bytes sig = from_hex(std::string(kSampleR) + kSampleS);
  EXPECT_TRUE(crypto::ecdsa_verify(key.public_key(), bytes_of("sample"), sig)
                  .ok());
  EXPECT_EQ(crypto::ecdsa_verify(key.public_key(), bytes_of("Sample"), sig)
                .code(),
            Err::kAuthFail);
  Bytes bad = sig;
  bad[10] ^= 0x40;
  EXPECT_EQ(
      crypto::ecdsa_verify(key.public_key(), bytes_of("sample"), bad).code(),
      Err::kAuthFail);
}

TEST(Ecdsa, SignIsDeterministicPerMessage) {
  crypto::HmacDrbg rng(bytes_of("tpm2-test:det"));
  const crypto::EcdsaPrivateKey key = random_key(rng);
  const Bytes m1 = bytes_of("transaction 1");
  const Bytes m2 = bytes_of("transaction 2");
  EXPECT_EQ(crypto::ecdsa_sign(key, m1), crypto::ecdsa_sign(key, m1));
  EXPECT_NE(crypto::ecdsa_sign(key, m1), crypto::ecdsa_sign(key, m2));
}

TEST(Ecdsa, DegenerateInputsRejected) {
  const crypto::EcdsaPrivateKey key = rfc_key();
  const crypto::EcdsaPublicKey pub = key.public_key();
  const Bytes msg = bytes_of("sample");

  // Structurally bad signatures.
  EXPECT_EQ(crypto::ecdsa_verify(pub, msg, Bytes()).code(), Err::kAuthFail);
  EXPECT_EQ(crypto::ecdsa_verify(pub, msg, Bytes(63, 0xab)).code(),
            Err::kAuthFail);
  EXPECT_EQ(crypto::ecdsa_verify(pub, msg, Bytes(64, 0x00)).code(),
            Err::kAuthFail);  // r = s = 0
  Bytes r_is_n = concat(p256::to_bytes_be(p256::order_n()),
                        from_hex(kSampleS));
  EXPECT_EQ(crypto::ecdsa_verify(pub, msg, r_is_n).code(), Err::kAuthFail);

  // Public keys that are not curve points.
  crypto::EcdsaPublicKey off = pub;
  off.y[31] ^= 1;
  EXPECT_EQ(crypto::ecdsa_verify(
                off, msg, from_hex(std::string(kSampleR) + kSampleS))
                .code(),
            Err::kAuthFail);
  crypto::EcdsaPublicKey short_key = pub;
  short_key.x.pop_back();
  EXPECT_EQ(crypto::ecdsa_verify(
                short_key, msg, from_hex(std::string(kSampleR) + kSampleS))
                .code(),
            Err::kAuthFail);

  // The cached context contains the same rejections.
  const crypto::EcdsaVerifyContext bad_ctx(off);
  EXPECT_FALSE(bad_ctx.valid());
  EXPECT_EQ(bad_ctx.verify(msg, from_hex(std::string(kSampleR) + kSampleS))
                .code(),
            Err::kAuthFail);

  // Nonce k out of range for the fixed-k signer.
  const Bytes digest = crypto::Sha256::hash(msg);
  EXPECT_FALSE(
      crypto::ecdsa_sign_digest_with_k(key, digest, Bytes(32, 0x00)).ok());
  EXPECT_FALSE(crypto::ecdsa_sign_digest_with_k(
                   key, digest, p256::to_bytes_be(p256::order_n()))
                   .ok());
}

TEST(Ecdsa, ContextVerdictMatchesUncachedVerify) {
  // Differential fuzz: the cached table walk, the one-shot windowed
  // ecdsa_verify and the double-and-add oracle must agree on genuine
  // signatures and on random single-byte corruptions of the signature
  // or message.
  crypto::HmacDrbg rng(bytes_of("tpm2-test:diff"));
  for (int ki = 0; ki < 6; ++ki) {
    const crypto::EcdsaPrivateKey key = random_key(rng);
    const crypto::EcdsaVerifyContext ctx(key.public_key());
    ASSERT_TRUE(ctx.valid());
    for (int mi = 0; mi < 6; ++mi) {
      const Bytes msg = rng.generate(48);
      const Bytes sig = crypto::ecdsa_sign(key, msg);
      const auto agree = [&](const Bytes& m, const Bytes& sg) {
        const Err oracle = reference_verify(key.public_key(), m, sg);
        EXPECT_EQ(ctx.verify(m, sg).code(), oracle);
        EXPECT_EQ(crypto::ecdsa_verify(key.public_key(), m, sg).code(),
                  oracle);
        return oracle;
      };
      EXPECT_EQ(agree(msg, sig), Err::kNone);

      Bytes mut_sig = sig;
      const Bytes pick = rng.generate(2);
      mut_sig[pick[0] % mut_sig.size()] ^= static_cast<std::uint8_t>(
          pick[1] ? pick[1] : 1);
      agree(msg, mut_sig);

      Bytes mut_msg = msg;
      mut_msg[pick[1] % mut_msg.size()] ^= 0x80;
      agree(mut_msg, sig);
    }
  }
}

TEST(P256, VartimeInversionMatchesFermat) {
  // The verifier's divstep-based inversion against the Fermat ladder:
  // structurally unrelated algorithms that must agree everywhere,
  // including at the boundary values where divstep sign handling and the
  // final range normalization are easiest to get wrong.
  p256::U256 n_minus_1 = p256::order_n();
  n_minus_1.w[0] -= 1;  // n is odd; no borrow
  p256::U256 n_minus_2 = p256::order_n();
  n_minus_2.w[0] -= 2;
  p256::U256 one{};
  one.w[0] = 1;
  p256::U256 two{};
  two.w[0] = 2;
  p256::U256 high_bit{};
  high_bit.w[3] = 1ull << 63;
  for (const p256::U256& v : {one, two, n_minus_1, n_minus_2, high_bit}) {
    EXPECT_EQ(p256::inv_mod_n_vartime(v), p256::inv_mod_n(v));
  }
  EXPECT_TRUE(p256::inv_mod_n_vartime(p256::U256{}).is_zero());

  crypto::HmacDrbg rng(bytes_of("tpm2-test:inv"));
  for (int i = 0; i < 500; ++i) {
    const p256::U256 v =
        p256::reduce_mod_n(p256::from_bytes_be(rng.generate(32)));
    if (v.is_zero()) continue;
    const p256::U256 inv = p256::inv_mod_n_vartime(v);
    EXPECT_EQ(inv, p256::inv_mod_n(v));
    EXPECT_EQ(p256::mul_mod_n(v, inv), one);
  }
}

// ---- SHA-256 PCR bank --------------------------------------------------

TEST(PcrBankSha256, PowerOnStateAndRegisterWidth) {
  tpm::PcrBank bank(crypto::HashAlg::kSha256);
  EXPECT_EQ(bank.digest_size(), tpm::kPcrSizeSha256);
  EXPECT_EQ(bank.read(0).value(), Bytes(tpm::kPcrSizeSha256, 0x00));
  EXPECT_EQ(bank.read(17).value(), Bytes(tpm::kPcrSizeSha256, 0xff));
  EXPECT_EQ(bank.read(23).value(), Bytes(tpm::kPcrSizeSha256, 0x00));
}

TEST(PcrBankSha256, ExtendIsSha256HashChain) {
  tpm::PcrBank bank(crypto::HashAlg::kSha256);
  const Bytes d = crypto::Sha256::hash(bytes_of("measurement"));
  const Bytes v1 = bank.extend(0, d).value();
  EXPECT_EQ(v1,
            crypto::Sha256::hash(concat(Bytes(tpm::kPcrSizeSha256, 0x00), d)));
  const Bytes v2 = bank.extend(0, d).value();
  EXPECT_EQ(v2, crypto::Sha256::hash(concat(v1, d)));
}

TEST(PcrBankSha256, CrossBankWidthsAreRejected) {
  // A SHA-1 value cannot be extended into a SHA-256 bank or vice versa:
  // the register width is part of the bank's type, not a caller choice.
  tpm::PcrBank sha256_bank(crypto::HashAlg::kSha256);
  EXPECT_FALSE(sha256_bank.extend(0, Bytes(tpm::kPcrSize, 0xaa)).ok());
  tpm::PcrBank sha1_bank;
  EXPECT_FALSE(sha1_bank.extend(0, Bytes(tpm::kPcrSizeSha256, 0xaa)).ok());
  // Same rule for verifier-side composites over explicit values.
  EXPECT_FALSE(tpm::PcrBank::composite_of(tpm::PcrSelection::of({17}),
                                          {Bytes(tpm::kPcrSize, 0)},
                                          crypto::HashAlg::kSha256)
                   .ok());
}

// ---- TPM 2.0 device ----------------------------------------------------

class Tpm2DeviceTest : public ::testing::Test {
 protected:
  Tpm2DeviceTest()
      : tpm_(tpm::default_chip(), bytes_of("tpm2-test-seed"), clock_) {}

  SimClock clock_;
  tpm::Tpm2Device tpm_;
};

TEST_F(Tpm2DeviceTest, QuoteVerifiesAndBindsNonceAndSigner) {
  const auto selection = tpm::PcrSelection::drtm();
  const Bytes nonce = bytes_of("sp-freshness-nonce");
  auto quote = tpm_.quote(nonce, selection);
  ASSERT_TRUE(quote.ok()) << quote.error().message;

  EXPECT_TRUE(
      tpm::verify_tpm2_quote(tpm_.ak_public(), quote.value(), nonce).ok());
  // Stale nonce: replayed quotes are refused.
  EXPECT_FALSE(
      tpm::verify_tpm2_quote(tpm_.ak_public(), quote.value(), bytes_of("old"))
          .ok());
  // Foreign AK: signer binding, not just signature validity.
  SimClock other_clock;
  tpm::Tpm2Device other(tpm::default_chip(), bytes_of("other-seed"),
                        other_clock);
  EXPECT_FALSE(
      tpm::verify_tpm2_quote(other.ak_public(), quote.value(), nonce).ok());

  // The quoted digest is what the live bank says.
  std::vector<Bytes> values;
  for (const std::uint32_t idx : selection.indices) {
    values.push_back(tpm_.pcr_read(idx).value());
  }
  EXPECT_EQ(quote.value().pcr_digest, tpm::tpm2_pcr_digest(values).value());
}

TEST_F(Tpm2DeviceTest, TamperedQuoteFieldsFailVerification) {
  const Bytes nonce = bytes_of("nonce");
  auto quote = tpm_.quote(nonce, tpm::PcrSelection::drtm());
  ASSERT_TRUE(quote.ok());

  tpm::Tpm2Quote forged = quote.value();
  forged.pcr_digest[0] ^= 1;  // claim a different PCR state
  EXPECT_FALSE(tpm::verify_tpm2_quote(tpm_.ak_public(), forged, nonce).ok());

  forged = quote.value();
  forged.clock_info.reset_count += 1;  // hide a reboot
  EXPECT_FALSE(tpm::verify_tpm2_quote(tpm_.ak_public(), forged, nonce).ok());

  forged = quote.value();
  forged.signature[10] ^= 0x40;
  EXPECT_FALSE(tpm::verify_tpm2_quote(tpm_.ak_public(), forged, nonce).ok());
}

TEST_F(Tpm2DeviceTest, QuoteSerializationRoundTripsAndEnforcesMagic) {
  auto quote = tpm_.quote(bytes_of("n"), tpm::PcrSelection::drtm());
  ASSERT_TRUE(quote.ok());
  const Bytes wire = quote.value().serialize();
  auto back = tpm::Tpm2Quote::deserialize(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().serialize(), wire);
  EXPECT_EQ(back.value().pcr_digest, quote.value().pcr_digest);
  EXPECT_EQ(back.value().clock_info.clock_us,
            quote.value().clock_info.clock_us);

  // The attest magic is load-bearing: a blob of another attest kind must
  // not parse as a quote.
  Bytes wrong_magic = wire;
  wrong_magic[0] ^= 1;
  EXPECT_FALSE(tpm::Tpm2Quote::deserialize(wrong_magic).ok());
  EXPECT_FALSE(tpm::Tpm2Quote::deserialize(BytesView(wire).subspan(1)).ok());
}

TEST_F(Tpm2DeviceTest, SealBindsPcrStateLocalityAndIntegrity) {
  const auto selection = tpm::PcrSelection::of({16});
  auto blob = tpm_.seal(tpm::Locality::kPal, selection, 1 << 2,
                        bytes_of("pal secret"));
  ASSERT_TRUE(blob.ok()) << blob.error().message;

  // Wrong locality: policy says locality 2 only.
  auto at_os = tpm_.unseal(tpm::Locality::kOs, blob.value());
  ASSERT_FALSE(at_os.ok());

  auto out = tpm_.unseal(tpm::Locality::kPal, blob.value());
  ASSERT_TRUE(out.ok()) << out.error().message;
  EXPECT_EQ(out.value(), bytes_of("pal secret"));

  // Tampered ciphertext: kAuthFail (integrity), not kPcrMismatch.
  Bytes mangled = blob.value();
  mangled[mangled.size() / 2] ^= 1;
  auto tampered = tpm_.unseal(tpm::Locality::kPal, mangled);
  ASSERT_FALSE(tampered.ok());
  EXPECT_EQ(tampered.code(), Err::kAuthFail);

  // Drifted PCR state: kPcrMismatch (policy), not kAuthFail.
  ASSERT_TRUE(
      tpm_.pcr_extend(tpm::Locality::kPal, 16,
                      crypto::Sha256::hash(bytes_of("drift")))
          .ok());
  auto drifted = tpm_.unseal(tpm::Locality::kPal, blob.value());
  ASSERT_FALSE(drifted.ok());
  EXPECT_EQ(drifted.code(), Err::kPcrMismatch);
}

TEST_F(Tpm2DeviceTest, SealToFuturePcrStateUnsealsOnlyThere) {
  // The enrollment PAL pre-seals for the confirmation PAL: sealed to PCR
  // values that do not exist yet, releasable only once the bank reaches
  // them.
  const auto selection = tpm::PcrSelection::of({16});
  const Bytes d = crypto::Sha256::hash(bytes_of("next-pal"));
  const Bytes future =
      crypto::Sha256::hash(concat(Bytes(tpm::kPcrSizeSha256, 0x00), d));
  auto blob = tpm_.seal_to(tpm::Locality::kPal, selection, {future}, 0xff,
                           bytes_of("handoff"));
  ASSERT_TRUE(blob.ok()) << blob.error().message;

  auto early = tpm_.unseal(tpm::Locality::kPal, blob.value());
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.code(), Err::kPcrMismatch);

  ASSERT_TRUE(tpm_.pcr_extend(tpm::Locality::kPal, 16, d).ok());
  auto late = tpm_.unseal(tpm::Locality::kPal, blob.value());
  ASSERT_TRUE(late.ok()) << late.error().message;
  EXPECT_EQ(late.value(), bytes_of("handoff"));
}

// ---- format-tagged certificates and messages ---------------------------

TEST(AkCertificate, RoundTripsAndVerifiesForBothFormats) {
  const tpm::PrivacyCa ca(bytes_of("tpm2-test-ca"), 1024);
  SimClock clock;
  tpm::Tpm2Device dev(tpm::default_chip(), bytes_of("cert-dev"), clock);

  const tpm::AkCertificate ecc =
      ca.certify_key("platform-ecc", tpm::AttestationKey::of(dev.ak_public()));
  auto parsed = tpm::AkCertificate::deserialize(ecc.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().platform_id, "platform-ecc");
  EXPECT_EQ(parsed.value().key.format, tpm::QuoteFormat::kTpm2);
  EXPECT_EQ(parsed.value().key, ecc.key);
  EXPECT_TRUE(tpm::PrivacyCa::verify_key(ca.public_key(), parsed.value()).ok());

  // The RSA form rides the same tagged container.
  crypto::HmacDrbg rsa_rng(bytes_of("cert-rsa"));
  const crypto::RsaPrivateKey rsa = crypto::rsa_generate(
      768, [&rsa_rng](std::size_t n) { return rsa_rng.generate(n); });
  const tpm::AkCertificate aik = ca.certify_key(
      "platform-rsa", tpm::AttestationKey::of(rsa.public_key()));
  EXPECT_EQ(aik.key.format, tpm::QuoteFormat::kTpm12);
  EXPECT_TRUE(tpm::PrivacyCa::verify_key(ca.public_key(), aik).ok());
}

TEST(AkCertificate, TamperedFieldsFailVerification) {
  const tpm::PrivacyCa ca(bytes_of("tpm2-test-ca2"), 1024);
  SimClock clock;
  tpm::Tpm2Device dev(tpm::default_chip(), bytes_of("cert-dev2"), clock);
  const tpm::AkCertificate cert =
      ca.certify_key("victim", tpm::AttestationKey::of(dev.ak_public()));

  tpm::AkCertificate forged = cert;
  forged.platform_id = "attacker";  // rebind the key to another platform
  EXPECT_FALSE(tpm::PrivacyCa::verify_key(ca.public_key(), forged).ok());

  forged = cert;
  forged.ca_signature[8] ^= 1;
  EXPECT_FALSE(tpm::PrivacyCa::verify_key(ca.public_key(), forged).ok());

  // A certificate from one CA does not verify against another's root.
  const tpm::PrivacyCa other(bytes_of("rogue-ca"), 1024);
  EXPECT_FALSE(tpm::PrivacyCa::verify_key(other.public_key(), cert).ok());
}

TEST(QuoteFormatWire, EnrollCompleteTagRoundTripsAndRejectsUnknown) {
  core::EnrollComplete msg;
  msg.client_id = "mixed-client";
  msg.confirmation_pubkey = bytes_of("pubkey");
  msg.quote = bytes_of("quote");
  msg.aik_certificate = bytes_of("cert");
  msg.format = tpm::QuoteFormat::kTpm2;

  const Bytes wire = msg.serialize();
  auto back = core::EnrollComplete::deserialize(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().format, tpm::QuoteFormat::kTpm2);
  EXPECT_EQ(back.value().confirmation_pubkey, msg.confirmation_pubkey);

  // Locate the tag byte by diffing the two known serializations, then
  // patch in an undefined tag: parse must refuse it (append-only enum;
  // forward compatibility is explicit rejection).
  core::EnrollComplete legacy = msg;
  legacy.format = tpm::QuoteFormat::kTpm12;
  const Bytes legacy_wire = legacy.serialize();
  ASSERT_EQ(wire.size(), legacy_wire.size());
  std::size_t tag_at = wire.size();
  for (std::size_t i = 0; i < wire.size(); ++i) {
    if (wire[i] != legacy_wire[i]) {
      ASSERT_EQ(tag_at, wire.size()) << "tag must be the only differing byte";
      tag_at = i;
    }
  }
  ASSERT_LT(tag_at, wire.size());
  Bytes unknown = wire;
  unknown[tag_at] = 0x7f;
  EXPECT_FALSE(core::EnrollComplete::deserialize(unknown).ok());

  EXPECT_FALSE(tpm::quote_format_from_wire(0).has_value());
  EXPECT_FALSE(tpm::quote_format_from_wire(3).has_value());
  EXPECT_EQ(tpm::quote_format_from_wire(1), tpm::QuoteFormat::kTpm12);
  EXPECT_EQ(tpm::quote_format_from_wire(2), tpm::QuoteFormat::kTpm2);
}

// ---- mixed-fleet end-to-end --------------------------------------------

TEST(MixedFleet, BothBackendsEnrollAndConfirmAgainstOneSp) {
  sp::FleetConfig cfg;
  cfg.num_clients = 4;
  cfg.seed = bytes_of("tpm2-test:mixed-fleet");
  cfg.tpm_key_bits = 1024;
  cfg.client_key_bits = 1024;
  cfg.backend_mix = {tpm::QuoteFormat::kTpm12, tpm::QuoteFormat::kTpm2};
  sp::Fleet fleet(cfg);

  // Round-robin assignment: even members 1.2, odd members 2.0.
  EXPECT_EQ(fleet.backend(0), tpm::QuoteFormat::kTpm12);
  EXPECT_EQ(fleet.backend(1), tpm::QuoteFormat::kTpm2);
  EXPECT_EQ(fleet.backend(2), tpm::QuoteFormat::kTpm12);
  EXPECT_EQ(fleet.backend(3), tpm::QuoteFormat::kTpm2);

  ASSERT_EQ(fleet.enroll_all(), 4u);

  devices::HumanParams perfect;
  perfect.typo_prob = 0.0;
  perfect.attention = 1.0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    pal::HumanAgent agent(devices::HumanModel(perfect, SimRng(100 + i)), "");
    fleet.client(i).set_user_agent(&agent);
    for (int t = 0; t < 2; ++t) {
      const std::string summary =
          "pay " + std::to_string(t) + " by " + fleet.client_id(i);
      agent.set_intended_summary(summary);
      auto outcome = fleet.client(i).submit_transaction(summary, {});
      ASSERT_TRUE(outcome.ok()) << outcome.error().message;
      EXPECT_TRUE(outcome.value().accepted)
          << fleet.client_id(i) << " tx " << t;
    }
  }

  // Per-backend accounting: slices attribute every event and sum to the
  // totals -- the SP dispatched on the enrollment's format tag.
  const sp::SpStats stats = fleet.sp().stats();
  EXPECT_EQ(stats.enrolled, 4u);
  EXPECT_EQ(stats.enrolled_format(tpm::QuoteFormat::kTpm12), 2u);
  EXPECT_EQ(stats.enrolled_format(tpm::QuoteFormat::kTpm2), 2u);
  EXPECT_EQ(stats.tx_accepted, 8u);
  EXPECT_EQ(stats.tx_accepted_format(tpm::QuoteFormat::kTpm12), 4u);
  EXPECT_EQ(stats.tx_accepted_format(tpm::QuoteFormat::kTpm2), 4u);
  EXPECT_EQ(stats.tx_rejected, 0u);

  // The slices surface in the obs registry for scrapes, not only in the
  // stats snapshot.
  const std::string json = fleet.sp().metrics().to_json();
  EXPECT_NE(json.find("sp.enrolled.tpm12"), std::string::npos);
  EXPECT_NE(json.find("sp.enrolled.tpm2"), std::string::npos);
  EXPECT_NE(json.find("sp.tx_accepted.tpm12"), std::string::npos);
  EXPECT_NE(json.find("sp.tx_accepted.tpm2"), std::string::npos);
}

}  // namespace
}  // namespace tp
