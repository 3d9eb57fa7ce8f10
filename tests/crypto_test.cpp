// Crypto substrate tests: published vectors for SHA-1/SHA-256/HMAC/AES,
// arithmetic properties for the bignum layer, the Montgomery kernel
// against a BigInt reference, and RSA round-trips.
#include <gtest/gtest.h>

#include "crypto/aes.h"
#include "crypto/bignum.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/modes.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "tpm/attestation.h"
#include "util/rng.h"

namespace tp::crypto {
namespace {

std::function<Bytes(std::size_t)> test_entropy(const std::string& label) {
  auto drbg = std::make_shared<HmacDrbg>(bytes_of("test-entropy:" + label));
  return [drbg](std::size_t n) { return drbg->generate(n); };
}

// ---------------------------------------------------------------- SHA-1

TEST(Sha1, Fips180Vectors) {
  EXPECT_EQ(to_hex(Sha1::hash(bytes_of(""))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(to_hex(Sha1::hash(bytes_of("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(to_hex(Sha1::hash(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionA) {
  Sha1 ctx;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(ctx.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  const Bytes msg = bytes_of("the quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha1 ctx;
    ctx.update(BytesView(msg).subspan(0, split));
    ctx.update(BytesView(msg).subspan(split));
    EXPECT_EQ(ctx.finalize(), Sha1::hash(msg)) << "split=" << split;
  }
}

TEST(Sha1, ReuseAfterFinalizeThrows) {
  Sha1 ctx;
  ctx.update(bytes_of("x"));
  (void)ctx.finalize();
  EXPECT_THROW(ctx.update(bytes_of("y")), std::logic_error);
  EXPECT_THROW(ctx.finalize(), std::logic_error);
}

// -------------------------------------------------------------- SHA-256

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(to_hex(Sha256::hash(bytes_of(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(Sha256::hash(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(Sha256::hash(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 ctx;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(ctx.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes msg = bytes_of(
      "uni-directional trusted path: transaction confirmation");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 ctx;
    ctx.update(BytesView(msg).subspan(0, split));
    ctx.update(BytesView(msg).subspan(split));
    EXPECT_EQ(ctx.finalize(), Sha256::hash(msg)) << "split=" << split;
  }
}

TEST(Sha256, BoundaryLengths) {
  // Exercise the padding branch on every length around the block size.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const Bytes msg(len, 0x5a);
    Sha256 a;
    a.update(msg);
    Sha256 b;
    for (std::size_t i = 0; i < len; ++i) {
      b.update(BytesView(&msg[i], 1));
    }
    EXPECT_EQ(a.finalize(), b.finalize()) << "len=" << len;
  }
}

// ----------------------------------------------------------------- HMAC

TEST(Hmac, Rfc2202Sha1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha1(key, bytes_of("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
  EXPECT_EQ(to_hex(hmac_sha1(bytes_of("Jefe"),
                             bytes_of("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(Hmac, Rfc4231Sha256) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, bytes_of("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(to_hex(hmac_sha256(bytes_of("Jefe"),
                               bytes_of("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, bytes_of("Test Using Larger Than Block-Size Key - "
                              "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeySensitivity) {
  const Bytes msg = bytes_of("payload");
  EXPECT_NE(hmac_sha256(bytes_of("k1"), msg), hmac_sha256(bytes_of("k2"), msg));
}

TEST(Hmac, CtxMatchesOneShotAcrossKeyLengths) {
  // Key lengths around the 64-byte block boundary exercise zero-padding
  // (short keys) and the hash-the-key-first path (>64).
  const Bytes msg = bytes_of("precomputed midstates must not change the MAC");
  for (std::size_t key_len : {0u, 1u, 63u, 64u, 65u, 128u}) {
    Bytes key(key_len);
    for (std::size_t i = 0; i < key_len; ++i) {
      key[i] = static_cast<std::uint8_t>(i * 7 + 3);
    }
    HmacSha256Ctx ctx256(key);
    ctx256.update(msg);
    EXPECT_EQ(ctx256.finalize(), hmac_sha256(key, msg)) << "key_len=" << key_len;
    HmacSha1Ctx ctx1(key);
    ctx1.update(msg);
    EXPECT_EQ(ctx1.finalize(), hmac_sha1(key, msg)) << "key_len=" << key_len;
  }
}

TEST(Hmac, CtxMatchesOneShotAcrossMessageLengths) {
  // Message sizes straddling the compression-block boundary, fed both in
  // one update and byte-at-a-time.
  const Bytes key = bytes_of("block-boundary key");
  for (std::size_t len : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 127u, 128u, 1000u}) {
    Bytes msg(len);
    for (std::size_t i = 0; i < len; ++i) {
      msg[i] = static_cast<std::uint8_t>(i);
    }
    HmacSha256Ctx whole(key);
    whole.update(msg);
    HmacSha256Ctx chunked(key);
    for (std::size_t i = 0; i < len; ++i) {
      chunked.update(BytesView(&msg[i], 1));
    }
    const Bytes expected = hmac_sha256(key, msg);
    EXPECT_EQ(whole.finalize(), expected) << "len=" << len;
    EXPECT_EQ(chunked.finalize(), expected) << "len=" << len;
  }
}

TEST(Hmac, CtxIsReusableAfterFinalize) {
  const Bytes key = bytes_of("reuse key");
  HmacSha256Ctx ctx(key);
  for (int round = 0; round < 3; ++round) {
    const Bytes msg = bytes_of("round " + std::to_string(round));
    ctx.update(msg);
    EXPECT_EQ(ctx.finalize(), hmac_sha256(key, msg)) << "round=" << round;
  }
}

TEST(Hmac, CtxResetDiscardsBufferedInput) {
  const Bytes key = bytes_of("reset key");
  HmacSha256Ctx ctx(key);
  ctx.update(bytes_of("garbage that reset must throw away"));
  ctx.reset();
  ctx.update(bytes_of("actual message"));
  EXPECT_EQ(ctx.finalize(), hmac_sha256(key, bytes_of("actual message")));
}

TEST(Hmac, CtxRekeySwitchesKeys) {
  HmacSha256Ctx ctx(bytes_of("first key"));
  ctx.update(bytes_of("msg"));
  EXPECT_EQ(ctx.finalize(), hmac_sha256(bytes_of("first key"), bytes_of("msg")));
  ctx.rekey(bytes_of("second key"));
  ctx.update(bytes_of("msg"));
  EXPECT_EQ(ctx.finalize(),
            hmac_sha256(bytes_of("second key"), bytes_of("msg")));
}

TEST(Hmac, FinalizeIntoRejectsShortOutput) {
  HmacSha256Ctx ctx(bytes_of("k"));
  std::array<std::uint8_t, kSha256DigestSize - 1> small;
  EXPECT_THROW(ctx.finalize_into(small), std::invalid_argument);
}

// ------------------------------------------------------------------ AES

TEST(Aes, Fips197Vectors) {
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  struct Case {
    const char* key;
    const char* ct;
  };
  const Case cases[] = {
      {"000102030405060708090a0b0c0d0e0f",
       "69c4e0d86a7b0430d8cdb78070b4c55a"},
      {"000102030405060708090a0b0c0d0e0f1011121314151617",
       "dda97ca4864cdfe06eaf70a0ec0d7191"},
      {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
       "8ea2b7ca516745bfeafc49904b496089"},
  };
  for (const auto& c : cases) {
    const Aes aes(from_hex(c.key));
    std::uint8_t out[16];
    aes.encrypt_block(pt.data(), out);
    EXPECT_EQ(to_hex(BytesView(out, 16)), c.ct);
    std::uint8_t back[16];
    aes.decrypt_block(out, back);
    EXPECT_EQ(to_hex(BytesView(back, 16)), to_hex(pt));
  }
}

TEST(Aes, RejectsBadKeySize) {
  EXPECT_THROW(Aes(Bytes(15, 0)), std::invalid_argument);
  EXPECT_THROW(Aes(Bytes(33, 0)), std::invalid_argument);
}

TEST(Modes, CbcFirstBlockMatchesSp80038a) {
  const Aes aes(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Bytes iv = from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  const Bytes ct = cbc_encrypt(aes, iv, pt);
  ASSERT_GE(ct.size(), 16u);
  EXPECT_EQ(to_hex(BytesView(ct).subspan(0, 16)),
            "7649abac8119b246cee98e9b12e9197d");
}

TEST(Modes, CbcRoundTripVariousLengths) {
  const Aes aes(Bytes(32, 0x42));
  const Bytes iv(16, 0x01);
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 100u}) {
    tp::SimRng rng(len);
    const Bytes pt = rng.next_bytes(len);
    const Bytes ct = cbc_encrypt(aes, iv, pt);
    EXPECT_EQ(ct.size() % 16, 0u);
    auto back = cbc_decrypt(aes, iv, ct);
    ASSERT_TRUE(back.ok()) << "len=" << len;
    EXPECT_EQ(back.value(), pt);
  }
}

TEST(Modes, CbcDetectsCorruption) {
  const Aes aes(Bytes(32, 0x42));
  const Bytes iv(16, 0x01);
  Bytes ct = cbc_encrypt(aes, iv, bytes_of("attack at dawn"));
  ct.back() ^= 0x80;
  auto r = cbc_decrypt(aes, iv, ct);
  // Corruption of the last block corrupts padding with overwhelming
  // probability; either error or wrong plaintext is acceptable, but the
  // common case is a padding error.
  if (r.ok()) {
    EXPECT_NE(r.value(), bytes_of("attack at dawn"));
  } else {
    EXPECT_EQ(r.code(), Err::kCryptoError);
  }
}

TEST(Modes, CbcRejectsBadLengths) {
  const Aes aes(Bytes(16, 0));
  EXPECT_FALSE(cbc_decrypt(aes, Bytes(16, 0), Bytes(15, 0)).ok());
  EXPECT_FALSE(cbc_decrypt(aes, Bytes(16, 0), Bytes{}).ok());
  EXPECT_FALSE(cbc_decrypt(aes, Bytes(8, 0), Bytes(16, 0)).ok());
}

TEST(Modes, CtrMatchesSp80038a) {
  const Aes aes(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Bytes nonce = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  EXPECT_EQ(to_hex(ctr_crypt(aes, nonce, pt)),
            "874d6191b620e3261bef6864990db6ce");
}

TEST(Modes, CtrIsInvolution) {
  const Aes aes(Bytes(16, 0x55));
  const Bytes nonce(16, 0x77);
  tp::SimRng rng(99);
  const Bytes pt = rng.next_bytes(47);
  EXPECT_EQ(ctr_crypt(aes, nonce, ctr_crypt(aes, nonce, pt)), pt);
}

// --------------------------------------------------------------- BigInt

TEST(BigInt, ByteRoundTrip) {
  const Bytes raw = from_hex("0102030405060708090a0b0c0d0e0f10");
  const BigInt v = BigInt::from_bytes_be(raw);
  EXPECT_EQ(v.to_bytes_be(), raw);
  EXPECT_EQ(v.to_bytes_be(20).size(), 20u);
  EXPECT_EQ(BigInt::from_bytes_be(v.to_bytes_be(20)), v);
}

TEST(BigInt, LeadingZerosIgnored) {
  EXPECT_EQ(BigInt::from_hex("0000ff"), BigInt(255));
}

TEST(BigInt, BasicArithmetic) {
  const BigInt a(1000000007), b(998244353);
  EXPECT_EQ(a + b, BigInt(1998244360ull));
  EXPECT_EQ(a - b, BigInt(1755654ull));
  EXPECT_EQ(a * b, BigInt(998244359987710471ull));
  EXPECT_THROW(b - a, std::domain_error);
}

TEST(BigInt, CarryPropagation) {
  const BigInt max32(0xffffffffull);
  EXPECT_EQ(max32 + BigInt(1), BigInt(0x100000000ull));
  EXPECT_EQ((max32 * max32).to_hex(), "fffffffe00000001");
}

TEST(BigInt, Shifts) {
  const BigInt one(1);
  EXPECT_EQ((one << 100).bit_length(), 101u);
  EXPECT_EQ(((one << 100) >> 100), one);
  EXPECT_EQ((BigInt(0xf0) >> 4), BigInt(0xf));
  EXPECT_EQ((BigInt() << 64), BigInt());
}

TEST(BigInt, CompareAndBits) {
  EXPECT_LT(BigInt(5), BigInt(6));
  EXPECT_GT(BigInt::from_hex("0100000000"), BigInt(0xffffffffull));
  const BigInt v(0b1010);
  EXPECT_TRUE(v.bit(1));
  EXPECT_FALSE(v.bit(0));
  EXPECT_EQ(v.bit_length(), 4u);
  EXPECT_EQ(BigInt().bit_length(), 0u);
}

TEST(BigInt, DivModSmall) {
  const auto [q, r] = BigInt(1000000007).divmod(BigInt(13));
  EXPECT_EQ(q, BigInt(76923077ull));
  EXPECT_EQ(r, BigInt(6));
  EXPECT_THROW(BigInt(1).divmod(BigInt()), std::domain_error);
}

TEST(BigInt, DivModReconstructionProperty) {
  auto entropy = test_entropy("divmod");
  for (int i = 0; i < 200; ++i) {
    const BigInt a = BigInt::from_bytes_be(entropy(1 + i % 40));
    BigInt b = BigInt::from_bytes_be(entropy(1 + (i * 7) % 24));
    if (b.is_zero()) b = BigInt(1);
    const auto [q, r] = a.divmod(b);
    EXPECT_EQ(q * b + r, a) << "iteration " << i;
    EXPECT_LT(r, b);
  }
}

TEST(BigInt, DivModNormalizationEdge) {
  // Divisor with high bit set in the top limb (no normalization shift)
  // and quotient digits near the base.
  const BigInt a = BigInt::from_hex("ffffffffffffffffffffffffffffffff");
  const BigInt b = BigInt::from_hex("80000000000000000000000000000001");
  const auto [q, r] = a.divmod(b);
  EXPECT_EQ(q * b + r, a);
  EXPECT_LT(r, b);
}

TEST(BigInt, ModExpKnownValues) {
  EXPECT_EQ(BigInt::mod_exp(BigInt(2), BigInt(10), BigInt(1000)), BigInt(24));
  EXPECT_EQ(BigInt::mod_exp(BigInt(3), BigInt(0), BigInt(7)), BigInt(1));
  EXPECT_EQ(BigInt::mod_exp(BigInt(5), BigInt(117), BigInt(19)),
            BigInt(1));  // 5^18 = 1 mod 19, 117 = 6*18+9 -> 5^9 mod 19
  // Recompute directly: 5^9 mod 19 = 1953125 mod 19.
  EXPECT_EQ(BigInt::mod_exp(BigInt(5), BigInt(9), BigInt(19)),
            BigInt(1953125ull % 19));
}

TEST(BigInt, ModExpMatchesNaive) {
  auto entropy = test_entropy("modexp");
  for (int i = 0; i < 25; ++i) {
    const BigInt base = BigInt::from_bytes_be(entropy(8));
    const BigInt exp = BigInt::from_bytes_be(entropy(2));
    BigInt m = BigInt::from_bytes_be(entropy(8));
    if (m.is_zero()) m = BigInt(7);
    if (m.is_even()) m = m + BigInt(1);  // exercise the Montgomery path
    BigInt naive(1);
    const BigInt b = base % m;
    for (BigInt c; c < exp; c = c + BigInt(1)) {
      naive = (naive * b) % m;
    }
    EXPECT_EQ(BigInt::mod_exp(base, exp, m), naive) << "iteration " << i;
  }
}

TEST(BigInt, ModExpEvenModulus) {
  EXPECT_EQ(BigInt::mod_exp(BigInt(3), BigInt(4), BigInt(100)), BigInt(81));
  EXPECT_EQ(BigInt::mod_exp(BigInt(7), BigInt(3), BigInt(48)),
            BigInt(343ull % 48));
}

// ---- Montgomery kernel (64-bit limbs) vs BigInt reference ------------

// Right-to-left square-and-multiply on BigInt's schoolbook (a * b) % m:
// no Montgomery arithmetic anywhere, so it checks the kernel
// independently.
BigInt naive_pow(const BigInt& base, const BigInt& exp, const BigInt& m) {
  BigInt result = BigInt(1) % m;
  BigInt cur = base % m;
  for (std::size_t i = 0; i < exp.bit_length(); ++i) {
    if (exp.bit(i)) result = (result * cur) % m;
    cur = (cur * cur) % m;
  }
  return result;
}

// Random odd modulus of exactly `bits` bits.
BigInt random_odd_modulus(std::size_t bits,
                          const std::function<Bytes(std::size_t)>& entropy) {
  const std::size_t bytes = (bits + 7) / 8;
  BigInt m = BigInt::from_bytes_be(entropy(bytes)) >> (bytes * 8 - bits);
  m.set_bit(bits - 1);
  m.set_bit(0);
  return m;
}

TEST(MontgomeryKernel, MatchesBigIntReferenceAtEverySize) {
  auto entropy = test_entropy("mont64");
  std::vector<BigInt> moduli;
  // 1-3 kernel limbs (64-bit), including limb-boundary widths; RSA sizes
  // 512-4096; and widths with an odd number of 32-bit limbs, where the
  // top 64-bit limb is half empty.
  for (std::size_t bits : {3u, 32u, 33u, 64u, 65u, 96u, 128u, 129u, 160u,
                           192u, 512u, 544u, 800u, 1024u, 1056u, 2048u,
                           3072u, 4096u}) {
    moduli.push_back(random_odd_modulus(bits, entropy));
  }
  // Carry-heavy shapes: all-ones (2^k - 1) and sparse (2^(k-1) + 1).
  for (std::size_t bits : {64u, 4096u}) {
    moduli.push_back((BigInt(1) << bits) - BigInt(1));
    moduli.push_back((BigInt(1) << (bits - 1)) + BigInt(1));
  }
  moduli.push_back(BigInt(3));

  const BigInt e65537(65537);
  for (const BigInt& m : moduli) {
    SCOPED_TRACE("modulus bits=" + std::to_string(m.bit_length()));
    const MontgomeryCtx ctx(m);
    const std::size_t bytes = (m.bit_length() + 7) / 8;
    std::vector<BigInt> operands = {BigInt(0), BigInt(1), m - BigInt(1)};
    for (int i = 0; i < 3; ++i) {
      operands.push_back(BigInt::from_bytes_be(entropy(bytes)) % m);
    }
    operands.push_back(BigInt::from_bytes_be(entropy(2 * bytes)));  // >= m
    const BigInt wide_exp = BigInt::from_bytes_be(entropy(8));
    for (const BigInt& a : operands) {
      SCOPED_TRACE("operand " + a.to_hex());
      const BigInt r = a % m;
      EXPECT_EQ(ctx.mod_exp(a, BigInt(1)), r);
      EXPECT_EQ(ctx.mod_exp(a, BigInt(2)), (r * r) % m);
      EXPECT_EQ(ctx.mod_exp(a, BigInt(3)), ((r * r) % m * r) % m);
      EXPECT_EQ(ctx.mod_exp(a, e65537), naive_pow(a, e65537, m));
      EXPECT_EQ(ctx.mod_exp_windowed(a, e65537), naive_pow(a, e65537, m));
      EXPECT_EQ(ctx.mod_exp(a, wide_exp), naive_pow(a, wide_exp, m));
    }
  }
}

TEST(MontgomeryKernel, CapacityIsKMaxBits) {
  auto entropy = test_entropy("mont64-capacity");
  EXPECT_NO_THROW(MontgomeryCtx(random_odd_modulus(4096, entropy)));
  EXPECT_THROW(MontgomeryCtx(random_odd_modulus(4097, entropy)),
               std::domain_error);
  // BigInt::mod_exp stays total beyond the kernel's capacity.
  const BigInt big = random_odd_modulus(4097, entropy);
  const BigInt base = BigInt::from_bytes_be(entropy(64));
  EXPECT_EQ(BigInt::mod_exp(base, BigInt(65537), big),
            naive_pow(base, BigInt(65537), big));
}

TEST(BigInt, FermatLittleTheoremProperty) {
  // For prime p and a not divisible by p: a^(p-1) = 1 mod p.
  const BigInt p = BigInt::from_hex("ffffffffffffffc5");  // 2^64 - 59, prime
  auto entropy = test_entropy("fermat");
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::from_bytes_be(entropy(8)) % p;
    if (a.is_zero()) a = BigInt(2);
    EXPECT_EQ(BigInt::mod_exp(a, p - BigInt(1), p), BigInt(1));
  }
}

TEST(BigInt, ModInverse) {
  const BigInt m(1000000007);
  auto entropy = test_entropy("inverse");
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::from_bytes_be(entropy(4)) % m;
    if (a.is_zero()) a = BigInt(3);
    const BigInt inv = BigInt::mod_inverse(a, m);
    ASSERT_FALSE(inv.is_zero());
    EXPECT_EQ(BigInt::mod_mul(a, inv, m), BigInt(1));
  }
  // Non-invertible case.
  EXPECT_EQ(BigInt::mod_inverse(BigInt(6), BigInt(9)), BigInt());
}

TEST(BigInt, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(36)), BigInt(12));
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(5)), BigInt(1));
  EXPECT_EQ(BigInt::gcd(BigInt(), BigInt(7)), BigInt(7));
}

TEST(BigInt, RandomBelowBounds) {
  auto entropy = test_entropy("random-below");
  const BigInt bound = BigInt::from_hex("0123456789abcdef");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(BigInt::random_below(bound, entropy), bound);
  }
}

TEST(BigInt, PrimalityKnownValues) {
  auto entropy = test_entropy("primality");
  EXPECT_TRUE(BigInt::is_probable_prime(BigInt(2), 10, entropy));
  EXPECT_TRUE(BigInt::is_probable_prime(BigInt(65537), 10, entropy));
  EXPECT_TRUE(BigInt::is_probable_prime(
      BigInt::from_hex("ffffffffffffffc5"), 10, entropy));
  EXPECT_FALSE(BigInt::is_probable_prime(BigInt(1), 10, entropy));
  EXPECT_FALSE(BigInt::is_probable_prime(BigInt(561), 10, entropy));  // Carmichael
  EXPECT_FALSE(BigInt::is_probable_prime(
      BigInt(3215031751ull), 10, entropy));  // strong pseudoprime to few bases
}

TEST(BigInt, GeneratePrimeHasRequestedShape) {
  auto entropy = test_entropy("genprime");
  const BigInt p = BigInt::generate_prime(128, entropy);
  EXPECT_EQ(p.bit_length(), 128u);
  EXPECT_TRUE(p.is_odd());
  EXPECT_TRUE(p.bit(126));  // second-highest bit forced
  EXPECT_TRUE(BigInt::is_probable_prime(p, 16, entropy));
}

// ------------------------------------------------------------------ DRBG

TEST(HmacDrbg, DeterministicFromSeed) {
  HmacDrbg a(bytes_of("seed"));
  HmacDrbg b(bytes_of("seed"));
  EXPECT_EQ(a.generate(64), b.generate(64));
}

TEST(HmacDrbg, DifferentSeedsDiverge) {
  HmacDrbg a(bytes_of("seed-1"));
  HmacDrbg b(bytes_of("seed-2"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(HmacDrbg, StateAdvances) {
  HmacDrbg a(bytes_of("seed"));
  EXPECT_NE(a.generate(32), a.generate(32));
}

TEST(HmacDrbg, ReseedChangesStream) {
  HmacDrbg a(bytes_of("seed"));
  HmacDrbg b(bytes_of("seed"));
  b.reseed(bytes_of("extra"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(HmacDrbg, OutputLength) {
  HmacDrbg a(bytes_of("seed"));
  EXPECT_EQ(a.generate(1).size(), 1u);
  EXPECT_EQ(a.generate(33).size(), 33u);
  EXPECT_EQ(a.generate(100).size(), 100u);
}

// ------------------------------------------------------------------- RSA

class RsaTest : public ::testing::Test {
 protected:
  // 768-bit keys keep the unit tests fast; benches use 2048.
  static const RsaPrivateKey& key() {
    static const RsaPrivateKey k = rsa_generate(768, test_entropy("rsa-key"));
    return k;
  }
};

TEST_F(RsaTest, KeyStructure) {
  const auto& k = key();
  EXPECT_EQ(k.n.bit_length(), 768u);
  EXPECT_EQ(k.e, BigInt(65537));
  EXPECT_EQ(k.p * k.q, k.n);
  // e*d = 1 mod (p-1)(q-1)
  const BigInt phi = (k.p - BigInt(1)) * (k.q - BigInt(1));
  EXPECT_EQ(BigInt::mod_mul(k.e, k.d, phi), BigInt(1));
}

TEST_F(RsaTest, SignVerifyRoundTripSha1AndSha256) {
  const Bytes msg = bytes_of("transfer 100 EUR to account 42");
  for (HashAlg alg : {HashAlg::kSha1, HashAlg::kSha256}) {
    const Bytes sig = rsa_sign(key(), alg, msg);
    EXPECT_EQ(sig.size(), key().modulus_bytes());
    EXPECT_TRUE(rsa_verify(key().public_key(), alg, msg, sig).ok());
  }
}

TEST_F(RsaTest, VerifyRejectsTamperedMessage) {
  const Bytes msg = bytes_of("transfer 100 EUR to account 42");
  const Bytes sig = rsa_sign(key(), HashAlg::kSha256, msg);
  const Bytes tampered = bytes_of("transfer 900 EUR to account 42");
  EXPECT_EQ(rsa_verify(key().public_key(), HashAlg::kSha256, tampered, sig)
                .code(),
            Err::kAuthFail);
}

TEST_F(RsaTest, VerifyRejectsTamperedSignature) {
  const Bytes msg = bytes_of("m");
  Bytes sig = rsa_sign(key(), HashAlg::kSha256, msg);
  sig[sig.size() / 2] ^= 0x01;
  EXPECT_FALSE(rsa_verify(key().public_key(), HashAlg::kSha256, msg, sig).ok());
}

TEST_F(RsaTest, VerifyRejectsWrongHashAlg) {
  const Bytes msg = bytes_of("m");
  const Bytes sig = rsa_sign(key(), HashAlg::kSha1, msg);
  EXPECT_FALSE(rsa_verify(key().public_key(), HashAlg::kSha256, msg, sig).ok());
}

TEST_F(RsaTest, VerifyRejectsWrongKey) {
  static const RsaPrivateKey other = rsa_generate(768, test_entropy("other"));
  const Bytes msg = bytes_of("m");
  const Bytes sig = rsa_sign(key(), HashAlg::kSha256, msg);
  EXPECT_FALSE(rsa_verify(other.public_key(), HashAlg::kSha256, msg, sig).ok());
}

TEST_F(RsaTest, VerifyRejectsBadLength) {
  const Bytes msg = bytes_of("m");
  EXPECT_FALSE(
      rsa_verify(key().public_key(), HashAlg::kSha256, msg, Bytes(10, 0)).ok());
}

TEST_F(RsaTest, EncryptDecryptRoundTrip) {
  auto entropy = test_entropy("rsa-enc");
  const Bytes pt = bytes_of("session-key-material-0123456789");
  auto ct = rsa_encrypt(key().public_key(), pt, entropy);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(ct.value().size(), key().modulus_bytes());
  auto back = rsa_decrypt(key(), ct.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pt);
}

TEST_F(RsaTest, EncryptRejectsOversizedPlaintext) {
  auto entropy = test_entropy("rsa-enc2");
  const Bytes pt(key().modulus_bytes() - 10, 0x61);
  EXPECT_FALSE(rsa_encrypt(key().public_key(), pt, entropy).ok());
}

TEST_F(RsaTest, DecryptRejectsCorruptedCiphertext) {
  auto entropy = test_entropy("rsa-enc3");
  auto ct = rsa_encrypt(key().public_key(), bytes_of("secret"), entropy);
  ASSERT_TRUE(ct.ok());
  Bytes corrupted = ct.value();
  corrupted[0] ^= 0x01;
  auto back = rsa_decrypt(key(), corrupted);
  // Either a padding failure or garbage != original; padding failure is
  // overwhelmingly likely.
  if (back.ok()) {
    EXPECT_NE(back.value(), bytes_of("secret"));
  }
}

TEST_F(RsaTest, PublicKeySerializationRoundTrip) {
  const RsaPublicKey pk = key().public_key();
  auto back = RsaPublicKey::deserialize(pk.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pk);
  EXPECT_EQ(back.value().fingerprint(), pk.fingerprint());
}

TEST_F(RsaTest, PrivateKeySerializationRoundTrip) {
  auto back = RsaPrivateKey::deserialize(key().serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().n, key().n);
  EXPECT_EQ(back.value().qinv, key().qinv);
  // The deserialized key must still sign correctly.
  const Bytes msg = bytes_of("roundtrip");
  EXPECT_TRUE(rsa_verify(key().public_key(), HashAlg::kSha256, msg,
                         rsa_sign(back.value(), HashAlg::kSha256, msg))
                  .ok());
}

TEST_F(RsaTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(RsaPublicKey::deserialize(Bytes{1, 2, 3}).ok());
  EXPECT_FALSE(RsaPrivateKey::deserialize(Bytes{}).ok());
}

TEST(RsaKeyParse, ModulusBoundedAtKernelCapacity) {
  // An oversized AIK or confirmation key must fail at parse (a typed
  // kCryptoError that the SP maps to kMalformedAikCertificate or
  // kMalformedPublicKey), never reach MontgomeryCtx's throw.
  auto entropy = test_entropy("rsa-parse-bound");
  const RsaPublicKey oversized{random_odd_modulus(4097, entropy),
                               BigInt(65537)};
  const RsaPublicKey largest{random_odd_modulus(4096, entropy),
                             BigInt(65537)};

  const auto rejected = RsaPublicKey::deserialize(oversized.serialize());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, Err::kCryptoError);
  EXPECT_FALSE(
      tpm::parse_public_key(tpm::QuoteFormat::kTpm12, oversized.serialize())
          .ok());

  const auto parsed = RsaPublicKey::deserialize(largest.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), largest);
  EXPECT_TRUE(
      tpm::parse_public_key(tpm::QuoteFormat::kTpm12, largest.serialize())
          .ok());

  // A context built around the parser (direct construction) falls back
  // to the uncached path instead of throwing.
  const RsaVerifyContext ctx(oversized);
  const Bytes sig(oversized.modulus_bytes(), 0x01);
  EXPECT_EQ(ctx.verify(HashAlg::kSha256, bytes_of("m"), sig).code(),
            Err::kAuthFail);
}

TEST_F(RsaTest, DeterministicKeygen) {
  const RsaPrivateKey a = rsa_generate(512, test_entropy("det"));
  const RsaPrivateKey b = rsa_generate(512, test_entropy("det"));
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.d, b.d);
}

TEST_F(RsaTest, DistinctSeedsDistinctKeys) {
  const RsaPrivateKey a = rsa_generate(512, test_entropy("s1"));
  const RsaPrivateKey b = rsa_generate(512, test_entropy("s2"));
  EXPECT_NE(a.n, b.n);
}

}  // namespace
}  // namespace tp::crypto
