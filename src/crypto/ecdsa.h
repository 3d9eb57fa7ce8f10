// ECDSA over NIST P-256 with SHA-256 and deterministic nonces.
//
// The signature scheme of the TPM 2.0 backend: attestation keys are
// P-256 keypairs, quotes and confirmation statements carry 64-byte
// r||s signatures. Nonce generation is RFC 6979: the per-signature k
// comes from the in-repo SP 800-90A HMAC-DRBG seeded with the private
// key and the message digest, so signing is deterministic (same key +
// message -> same signature) and never depends on an external entropy
// source being good at signing time.
//
// Verification has the same two tiers as RSA: a one-shot ecdsa_verify
// (the TPM 2.0 enrollment's quote check: the shared generator table for
// u1*G and a windowed Horner walk for u2*Q) and a cached
// EcdsaVerifyContext that precomputes a window table for the public key
// -- the SP's hot loop, several times faster than RSA-2048 verification
// (EXPERIMENTS.md F9).
#pragma once

#include <functional>
#include <optional>

#include "crypto/p256.h"
#include "util/bytes.h"
#include "util/result.h"

namespace tp::crypto {

/// Serialized sizes: SEC1 uncompressed point and r||s signature.
inline constexpr std::size_t kEcdsaPublicKeySize = 1 + 2 * p256::kFieldSize;
inline constexpr std::size_t kEcdsaSignatureSize = 2 * p256::kFieldSize;

/// Public half: affine point coordinates, 32-byte big-endian each.
struct EcdsaPublicKey {
  Bytes x;
  Bytes y;

  /// SEC1 uncompressed form: 0x04 || x || y (65 bytes).
  Bytes serialize() const;
  static Result<EcdsaPublicKey> deserialize(BytesView data);

  /// Canonical fingerprint: SHA-256 over the serialization.
  Bytes fingerprint() const;

  /// Heap bytes held by the coordinates (per-client memory accounting).
  std::size_t memory_bytes() const { return x.size() + y.size(); }

  bool operator==(const EcdsaPublicKey& other) const = default;
};

/// Private scalar d plus its cached public point.
struct EcdsaPrivateKey {
  Bytes d;  // 32-byte big-endian, 0 < d < n
  EcdsaPublicKey public_half;

  const EcdsaPublicKey& public_key() const { return public_half; }

  Bytes serialize() const;
  static Result<EcdsaPrivateKey> deserialize(BytesView data);
};

/// Generates a keypair; `random_bytes` supplies entropy (n -> n octets),
/// re-drawn until the scalar lands in [1, n-1].
EcdsaPrivateKey ecdsa_generate(
    const std::function<Bytes(std::size_t)>& random_bytes);

/// Deterministic ECDSA-P256-SHA256 signature: 64 bytes r||s. The nonce
/// follows RFC 6979 exactly (HMAC-DRBG(SHA-256) over int2octets(d) ||
/// bits2octets(H(message)))).
Bytes ecdsa_sign(const EcdsaPrivateKey& key, BytesView message);

/// Signs a precomputed 32-byte digest with an explicit nonce k. For
/// known-answer tests against fixed-k vectors; rejects k outside
/// [1, n-1] and degenerate (r == 0 or s == 0) outcomes.
Result<Bytes> ecdsa_sign_digest_with_k(const EcdsaPrivateKey& key,
                                       BytesView digest, BytesView k);

/// Verifies r||s over SHA-256(message) with no per-key precompute
/// (p256::verify_r_match on the affine key). Malformed inputs and value
/// mismatches both report kAuthFail (mirroring rsa_verify).
Status ecdsa_verify(const EcdsaPublicKey& key, BytesView message,
                    BytesView signature);

/// Per-key verification context: precomputes a signed-digit window table
/// for the public point (p256::WindowTable, 32 KiB, built once per
/// enrollment) so each verify walks at most 22 + 64 = 86 table entries
/// -- the shared generator table plus the per-key table -- as mixed
/// point additions with no doublings and no final field inversion.
/// Verdict-identical to ecdsa_verify.
///
/// Immutable after construction; safe to share across threads.
class EcdsaVerifyContext {
 public:
  /// Keys that are not valid curve points (wrong length, coordinates
  /// >= p, off-curve) yield a context whose verify() always reports
  /// kAuthFail -- same containment behavior as RsaVerifyContext's
  /// degenerate-modulus fallback.
  explicit EcdsaVerifyContext(EcdsaPublicKey key);

  const EcdsaPublicKey& public_key() const { return key_; }

  /// True when the key parsed as a valid P-256 point.
  bool valid() const { return table_.has_value(); }

  /// Heap bytes this context owns: its key copy and the window table.
  std::size_t memory_bytes() const;

  /// Same contract as ecdsa_verify(public_key(), ...).
  Status verify(BytesView message, BytesView signature) const;

 private:
  EcdsaPublicKey key_;
  std::optional<p256::WindowTable> table_;
};

}  // namespace tp::crypto
