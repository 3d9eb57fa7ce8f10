#include "crypto/rsa.h"

#include <stdexcept>
#include <utility>

#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "util/serial.h"

namespace tp::crypto {

namespace {

// DER-encoded DigestInfo prefixes (RFC 3447, section 9.2 notes).
const Bytes kSha1Prefix = from_hex("3021300906052b0e03021a05000414");
const Bytes kSha256Prefix =
    from_hex("3031300d060960864801650304020105000420");

Bytes digest_info(HashAlg alg, BytesView message) {
  // Stack-digest variants: every sign/verify hashes exactly once, so the
  // digest never needs its own heap buffer.
  switch (alg) {
    case HashAlg::kSha1:
      return concat(kSha1Prefix, Sha1::digest(message));
    case HashAlg::kSha256:
      return concat(kSha256Prefix, Sha256::digest(message));
  }
  throw std::logic_error("digest_info: bad alg");
}

// EMSA-PKCS1-v1_5 encoding: 0x00 0x01 FF..FF 0x00 DigestInfo.
Result<Bytes> emsa_encode(HashAlg alg, BytesView message, std::size_t em_len) {
  const Bytes t = digest_info(alg, message);
  if (em_len < t.size() + 11) {
    return Error{Err::kCryptoError, "emsa_encode: modulus too small"};
  }
  Bytes em;
  em.reserve(em_len);
  em.push_back(0x00);
  em.push_back(0x01);
  em.insert(em.end(), em_len - t.size() - 3, 0xff);
  em.push_back(0x00);
  append(em, t);
  return em;
}

// Private-key operation m^d mod n via the CRT (about 3-4x faster than a
// straight exponentiation and matches how real implementations behave).
BigInt private_op(const RsaPrivateKey& key, const BigInt& m) {
  const BigInt m1 = BigInt::mod_exp(m % key.p, key.dp, key.p);
  const BigInt m2 = BigInt::mod_exp(m % key.q, key.dq, key.q);
  // h = qinv * (m1 - m2) mod p, careful with unsigned subtraction.
  BigInt diff;
  if (m1 >= m2 % key.p) {
    diff = m1 - (m2 % key.p);
  } else {
    diff = (m1 + key.p) - (m2 % key.p);
  }
  const BigInt h = BigInt::mod_mul(key.qinv, diff, key.p);
  return m2 + key.q * h;
}

}  // namespace

Bytes RsaPublicKey::serialize() const {
  BinaryWriter w;
  w.var_bytes(n.to_bytes_be());
  w.var_bytes(e.to_bytes_be());
  return w.take();
}

Result<RsaPublicKey> RsaPublicKey::deserialize(BytesView data) {
  BinaryReader r(data);
  auto n_bytes = r.var_bytes();
  if (!n_bytes.ok()) return n_bytes.error();
  auto e_bytes = r.var_bytes();
  if (!e_bytes.ok()) return e_bytes.error();
  if (auto s = r.expect_exhausted(); !s.ok()) return s.error();
  RsaPublicKey key{BigInt::from_bytes_be(n_bytes.value()),
                   BigInt::from_bytes_be(e_bytes.value())};
  if (key.n.is_zero() || key.e.is_zero()) {
    return Error{Err::kCryptoError, "RsaPublicKey: zero component"};
  }
  if (key.n.bit_length() > MontgomeryCtx::kMaxBits) {
    return Error{Err::kCryptoError, "RsaPublicKey: modulus too large"};
  }
  return key;
}

Bytes RsaPublicKey::fingerprint() const { return Sha256::hash(serialize()); }

std::size_t RsaPublicKey::memory_bytes() const {
  return (n.limbs().size() + e.limbs().size()) * sizeof(std::uint32_t);
}

Bytes RsaPrivateKey::serialize() const {
  BinaryWriter w;
  for (const BigInt* part : {&n, &e, &d, &p, &q, &dp, &dq, &qinv}) {
    w.var_bytes(part->to_bytes_be());
  }
  return w.take();
}

Result<RsaPrivateKey> RsaPrivateKey::deserialize(BytesView data) {
  BinaryReader r(data);
  RsaPrivateKey key;
  for (BigInt* part :
       {&key.n, &key.e, &key.d, &key.p, &key.q, &key.dp, &key.dq, &key.qinv}) {
    auto bytes = r.var_bytes();
    if (!bytes.ok()) return bytes.error();
    *part = BigInt::from_bytes_be(bytes.value());
  }
  if (auto s = r.expect_exhausted(); !s.ok()) return s.error();
  if (key.n.is_zero() || key.d.is_zero()) {
    return Error{Err::kCryptoError, "RsaPrivateKey: zero component"};
  }
  return key;
}

RsaPrivateKey rsa_generate(
    std::size_t bits, const std::function<Bytes(std::size_t)>& random_bytes) {
  if (bits < 512) throw std::invalid_argument("rsa_generate: bits < 512");
  const BigInt e(65537);

  RsaPrivateKey key;
  key.e = e;
  for (;;) {
    const BigInt p = BigInt::generate_prime(bits / 2, random_bytes);
    const BigInt q = BigInt::generate_prime(bits - bits / 2, random_bytes);
    if (p == q) continue;

    const BigInt n = p * q;
    if (n.bit_length() != bits) continue;

    const BigInt p1 = p - BigInt(1);
    const BigInt q1 = q - BigInt(1);
    const BigInt phi = p1 * q1;
    if (BigInt::gcd(e, phi) != BigInt(1)) continue;

    key.n = n;
    key.d = BigInt::mod_inverse(e, phi);
    key.p = p;
    key.q = q;
    key.dp = key.d % p1;
    key.dq = key.d % q1;
    key.qinv = BigInt::mod_inverse(q, p);
    return key;
  }
}

Bytes rsa_sign(const RsaPrivateKey& key, HashAlg alg, BytesView message) {
  const std::size_t k = key.modulus_bytes();
  auto em = emsa_encode(alg, message, k);
  if (!em.ok()) throw std::invalid_argument(em.error().to_string());
  const BigInt m = BigInt::from_bytes_be(em.value());
  const BigInt s = private_op(key, m);
  return s.to_bytes_be(k);
}

namespace {

// Shared tail of signature verification: compare the recovered message
// representative against the expected EMSA-PKCS1-v1_5 encoding.
Status check_recovered(const BigInt& m, HashAlg alg, BytesView message,
                       std::size_t k) {
  const Bytes em = m.to_bytes_be(k);
  auto expected = emsa_encode(alg, message, k);
  if (!expected.ok()) return expected.error();
  if (!ct_equal(em, expected.value())) {
    return Error{Err::kAuthFail, "rsa_verify: signature mismatch"};
  }
  return Status::ok_status();
}

}  // namespace

Status rsa_verify(const RsaPublicKey& key, HashAlg alg, BytesView message,
                  BytesView signature) {
  const std::size_t k = key.modulus_bytes();
  if (signature.size() != k) {
    return Error{Err::kAuthFail, "rsa_verify: bad signature length"};
  }
  const BigInt s = BigInt::from_bytes_be(signature);
  if (s >= key.n) {
    return Error{Err::kAuthFail, "rsa_verify: representative out of range"};
  }
  const BigInt m = BigInt::mod_exp(s, key.e, key.n);
  return check_recovered(m, alg, message, k);
}

RsaVerifyContext::RsaVerifyContext(RsaPublicKey key)
    : e_(std::move(key.e)), k_(key.modulus_bytes()) {
  if (key.n.is_odd() && key.n >= BigInt(3) &&
      key.n.bit_length() <= MontgomeryCtx::kMaxBits) {
    mont_.emplace(key.n);
  } else {
    n_ = std::move(key.n);
  }
}

RsaPublicKey RsaVerifyContext::public_key() const {
  return {mont_ ? mont_->modulus() : n_, e_};
}

std::size_t RsaVerifyContext::memory_bytes() const {
  return (e_.limbs().size() + n_.limbs().size()) * sizeof(std::uint32_t) +
         (mont_ ? mont_->memory_bytes() : 0);
}

Status RsaVerifyContext::verify(HashAlg alg, BytesView message,
                                BytesView signature) const {
  if (!mont_.has_value()) {
    return rsa_verify(public_key(), alg, message, signature);
  }
  if (signature.size() != k_) {
    return Error{Err::kAuthFail, "rsa_verify: bad signature length"};
  }
  const BigInt s = BigInt::from_bytes_be(signature);
  if (!mont_->below_modulus(s)) {
    return Error{Err::kAuthFail, "rsa_verify: representative out of range"};
  }
  const BigInt m = mont_->mod_exp(s, e_);
  return check_recovered(m, alg, message, k_);
}

Result<Bytes> rsa_encrypt(
    const RsaPublicKey& key, BytesView plaintext,
    const std::function<Bytes(std::size_t)>& random_bytes) {
  const std::size_t k = key.modulus_bytes();
  if (plaintext.size() + 11 > k) {
    return Error{Err::kCryptoError, "rsa_encrypt: plaintext too long"};
  }
  // EME-PKCS1-v1_5: 0x00 0x02 PS(nonzero) 0x00 M
  Bytes em;
  em.reserve(k);
  em.push_back(0x00);
  em.push_back(0x02);
  const std::size_t ps_len = k - plaintext.size() - 3;
  while (em.size() < 2 + ps_len) {
    Bytes r = random_bytes(ps_len);
    for (std::uint8_t b : r) {
      if (b != 0 && em.size() < 2 + ps_len) em.push_back(b);
    }
  }
  em.push_back(0x00);
  append(em, plaintext);

  const BigInt m = BigInt::from_bytes_be(em);
  const BigInt c = BigInt::mod_exp(m, key.e, key.n);
  return c.to_bytes_be(k);
}

Result<Bytes> rsa_decrypt(const RsaPrivateKey& key, BytesView ciphertext) {
  const std::size_t k = key.modulus_bytes();
  if (ciphertext.size() != k) {
    return Error{Err::kCryptoError, "rsa_decrypt: bad ciphertext length"};
  }
  const BigInt c = BigInt::from_bytes_be(ciphertext);
  if (c >= key.n) {
    return Error{Err::kCryptoError, "rsa_decrypt: representative out of range"};
  }
  const BigInt m = private_op(key, c);
  const Bytes em = m.to_bytes_be(k);
  if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02) {
    return Error{Err::kCryptoError, "rsa_decrypt: bad padding header"};
  }
  std::size_t sep = 2;
  while (sep < em.size() && em[sep] != 0x00) ++sep;
  if (sep == em.size() || sep < 10) {
    return Error{Err::kCryptoError, "rsa_decrypt: bad padding body"};
  }
  return Bytes(em.begin() + static_cast<std::ptrdiff_t>(sep + 1), em.end());
}

}  // namespace tp::crypto
