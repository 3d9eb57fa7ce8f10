#include "crypto/ecdsa.h"

#include <optional>
#include <utility>

#include "crypto/drbg.h"
#include "crypto/sha256.h"

namespace tp::crypto {
namespace {

using p256::U256;

Error malformed(const char* what) {
  return Error{Err::kAuthFail, what};
}

/// bits2int of a SHA-256 digest, reduced into [0, n).
U256 digest_to_scalar(BytesView digest32) {
  return p256::reduce_mod_n(p256::from_bytes_be(digest32));
}

bool scalar_in_range(const U256& v) {
  return !v.is_zero() && p256::u256_less(v, p256::order_n());
}

/// One signing attempt with a candidate nonce; nullopt on the (rare)
/// degenerate outcomes r == 0 or s == 0, which callers retry.
std::optional<Bytes> sign_once(const U256& d, const U256& e, const U256& k) {
  const p256::AffinePoint point = p256::scalar_mul_base(k);
  if (point.infinity) return std::nullopt;
  const U256 r = p256::reduce_mod_n(point.x);
  if (r.is_zero()) return std::nullopt;
  const U256 s = p256::mul_mod_n(
      p256::inv_mod_n(k), p256::add_mod_n(e, p256::mul_mod_n(r, d)));
  if (s.is_zero()) return std::nullopt;
  return concat(p256::to_bytes_be(r), p256::to_bytes_be(s));
}

struct ParsedSignature {
  U256 r;
  U256 s;
};

std::optional<ParsedSignature> parse_signature(BytesView signature) {
  if (signature.size() != kEcdsaSignatureSize) return std::nullopt;
  ParsedSignature out;
  out.r = p256::from_bytes_be(signature.subspan(0, p256::kFieldSize));
  out.s = p256::from_bytes_be(signature.subspan(p256::kFieldSize));
  if (!scalar_in_range(out.r) || !scalar_in_range(out.s)) return std::nullopt;
  return out;
}

/// The verify equation's scalars u1 = e/s and u2 = r/s (mod n). s is
/// public, so the variable-time inversion is safe (and much cheaper than
/// the Fermat ladder signing uses for the secret nonce).
std::pair<U256, U256> verify_scalars(BytesView message,
                                     const ParsedSignature& sig) {
  const U256 e = digest_to_scalar(Sha256::hash(message));
  const U256 w = p256::inv_mod_n_vartime(sig.s);
  return {p256::mul_mod_n(e, w), p256::mul_mod_n(sig.r, w)};
}

std::optional<p256::AffinePoint> key_to_point(const EcdsaPublicKey& key) {
  if (key.x.size() != p256::kFieldSize || key.y.size() != p256::kFieldSize) {
    return std::nullopt;
  }
  p256::AffinePoint q;
  q.x = p256::from_bytes_be(key.x);
  q.y = p256::from_bytes_be(key.y);
  q.infinity = false;
  if (!p256::on_curve(q)) return std::nullopt;
  return q;
}

}  // namespace

Bytes EcdsaPublicKey::serialize() const {
  Bytes out;
  out.reserve(kEcdsaPublicKeySize);
  out.push_back(0x04);
  append(out, x);
  append(out, y);
  return out;
}

Result<EcdsaPublicKey> EcdsaPublicKey::deserialize(BytesView data) {
  if (data.size() != kEcdsaPublicKeySize || data[0] != 0x04) {
    return Error{Err::kCryptoError, "EcdsaPublicKey: not a SEC1 uncompressed point"};
  }
  EcdsaPublicKey key;
  key.x.assign(data.begin() + 1, data.begin() + 1 + p256::kFieldSize);
  key.y.assign(data.begin() + 1 + p256::kFieldSize, data.end());
  return key;
}

Bytes EcdsaPublicKey::fingerprint() const { return Sha256::hash(serialize()); }

Bytes EcdsaPrivateKey::serialize() const {
  return concat(d, public_half.serialize());
}

Result<EcdsaPrivateKey> EcdsaPrivateKey::deserialize(BytesView data) {
  if (data.size() != p256::kFieldSize + kEcdsaPublicKeySize) {
    return Error{Err::kCryptoError, "EcdsaPrivateKey: bad length"};
  }
  EcdsaPrivateKey key;
  key.d.assign(data.begin(), data.begin() + p256::kFieldSize);
  auto pub = EcdsaPublicKey::deserialize(data.subspan(p256::kFieldSize));
  if (!pub.ok()) return pub.error();
  key.public_half = pub.take();
  return key;
}

EcdsaPrivateKey ecdsa_generate(
    const std::function<Bytes(std::size_t)>& random_bytes) {
  for (;;) {
    Bytes cand = random_bytes(p256::kFieldSize);
    const U256 d = p256::from_bytes_be(cand);
    if (!scalar_in_range(d)) continue;
    const p256::AffinePoint pub = p256::scalar_mul_base(d);
    EcdsaPrivateKey key;
    key.d = std::move(cand);
    key.public_half.x = p256::to_bytes_be(pub.x);
    key.public_half.y = p256::to_bytes_be(pub.y);
    return key;
  }
}

Bytes ecdsa_sign(const EcdsaPrivateKey& key, BytesView message) {
  const Bytes digest = Sha256::hash(message);
  const U256 e = digest_to_scalar(digest);
  const U256 d = p256::from_bytes_be(key.d);
  // RFC 6979: seed the DRBG with int2octets(d) || bits2octets(H(m)).
  // Our HmacDrbg is SP 800-90A HMAC-DRBG(SHA-256) -- the exact
  // construction the RFC specifies -- and its post-generate state update
  // matches the RFC's retry step, so candidate nonces reproduce the RFC
  // test vectors bit for bit (see EcdsaKnownAnswer tests).
  HmacDrbg drbg(concat(p256::to_bytes_be(d), p256::to_bytes_be(e)));
  for (;;) {
    const Bytes kb = drbg.generate(p256::kFieldSize);
    const U256 k = p256::from_bytes_be(kb);
    if (!scalar_in_range(k)) continue;
    if (auto sig = sign_once(d, e, k)) return *sig;
  }
}

Result<Bytes> ecdsa_sign_digest_with_k(const EcdsaPrivateKey& key,
                                       BytesView digest, BytesView k) {
  if (digest.size() != kSha256DigestSize) {
    return Error{Err::kInvalidArgument, "ecdsa_sign_digest_with_k: digest must be 32 bytes"};
  }
  if (k.size() != p256::kFieldSize) {
    return Error{Err::kInvalidArgument, "ecdsa_sign_digest_with_k: k must be 32 bytes"};
  }
  const U256 nonce = p256::from_bytes_be(k);
  if (!scalar_in_range(nonce)) {
    return Error{Err::kInvalidArgument, "ecdsa_sign_digest_with_k: k out of range"};
  }
  const U256 e = digest_to_scalar(digest);
  const U256 d = p256::from_bytes_be(key.d);
  if (auto sig = sign_once(d, e, nonce)) return *sig;
  return Error{Err::kCryptoError, "ecdsa_sign_digest_with_k: degenerate r or s"};
}

Status ecdsa_verify(const EcdsaPublicKey& key, BytesView message,
                    BytesView signature) {
  const auto sig = parse_signature(signature);
  if (!sig) return malformed("ecdsa_verify: malformed signature");
  const auto q = key_to_point(key);
  if (!q) return malformed("ecdsa_verify: invalid public key");
  const auto [u1, u2] = verify_scalars(message, *sig);
  if (!p256::verify_r_match(*q, u1, u2, sig->r)) {
    return malformed("ecdsa_verify: signature mismatch");
  }
  return Status();
}

EcdsaVerifyContext::EcdsaVerifyContext(EcdsaPublicKey key)
    : key_(std::move(key)) {
  if (const auto q = key_to_point(key_)) table_.emplace(*q);
}

std::size_t EcdsaVerifyContext::memory_bytes() const {
  return key_.memory_bytes() + (table_ ? p256::WindowTable::kMemoryBytes : 0);
}

Status EcdsaVerifyContext::verify(BytesView message,
                                  BytesView signature) const {
  if (!table_) return malformed("EcdsaVerifyContext: invalid public key");
  const auto sig = parse_signature(signature);
  if (!sig) return malformed("EcdsaVerifyContext: malformed signature");
  const auto [u1, u2] = verify_scalars(message, *sig);
  if (!p256::verify_r_match(*table_, u1, u2, sig->r)) {
    return malformed("EcdsaVerifyContext: signature mismatch");
  }
  return Status();
}

}  // namespace tp::crypto
