// RSA with PKCS#1 v1.5 signatures and encryption (RFC 3447).
//
// TPM 1.2 keys are RSA keys and TPM signatures/quotes are
// RSASSA-PKCS1-v1_5, so this is the exact primitive set the emulator and
// the service-provider verifier need. Private operations use the CRT.
#pragma once

#include <functional>
#include <optional>

#include "crypto/bignum.h"
#include "util/bytes.h"
#include "util/result.h"

namespace tp::crypto {

/// Hash algorithm identifier carried inside PKCS#1 v1.5 DigestInfo.
enum class HashAlg { kSha1, kSha256 };

/// Public half: (n, e). Serializable for wire transport.
struct RsaPublicKey {
  BigInt n;
  BigInt e;

  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }

  Bytes serialize() const;
  /// Rejects zero components and moduli longer than
  /// MontgomeryCtx::kMaxBits (kCryptoError), so a parsed key always fits
  /// the Montgomery kernel.
  static Result<RsaPublicKey> deserialize(BytesView data);

  /// Canonical fingerprint: SHA-256 over the serialization.
  Bytes fingerprint() const;

  /// Heap bytes held by n and e (per-client memory accounting).
  std::size_t memory_bytes() const;

  bool operator==(const RsaPublicKey& other) const = default;
};

/// Private key with CRT components.
struct RsaPrivateKey {
  BigInt n, e, d;
  BigInt p, q;
  BigInt dp, dq, qinv;  // d mod p-1, d mod q-1, q^-1 mod p

  RsaPublicKey public_key() const { return {n, e}; }
  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }

  Bytes serialize() const;
  static Result<RsaPrivateKey> deserialize(BytesView data);
};

/// Generates a keypair with public exponent 65537. `bits` is the modulus
/// size (>= 512). `random_bytes` supplies entropy (n -> n octets).
RsaPrivateKey rsa_generate(
    std::size_t bits, const std::function<Bytes(std::size_t)>& random_bytes);

/// RSASSA-PKCS1-v1_5 signature over `message` (hashed with `alg`).
Bytes rsa_sign(const RsaPrivateKey& key, HashAlg alg, BytesView message);

/// Verifies an RSASSA-PKCS1-v1_5 signature. Structural errors and value
/// mismatches both report kAuthFail.
Status rsa_verify(const RsaPublicKey& key, HashAlg alg, BytesView message,
                  BytesView signature);

/// Per-key verification context: caches the Montgomery context for the
/// key's modulus so repeated verifies against one public key (the SP's
/// hot loop — one enrolled client confirming many transactions) skip the
/// per-call R^2-mod-n setup. The modulus lives only in that context's
/// limbs; the context keeps e beside it. Verdicts are bit-identical to
/// rsa_verify.
///
/// Immutable after construction; safe to share across threads.
class RsaVerifyContext {
 public:
  /// Keys with a degenerate modulus (even or < 3 — never produced by
  /// rsa_generate, but deserialization accepts them) or one beyond
  /// MontgomeryCtx::kMaxBits fall back to the uncached rsa_verify path
  /// instead of failing construction.
  explicit RsaVerifyContext(RsaPublicKey key);

  /// The key, rebuilt from the cached limbs (for serialization).
  RsaPublicKey public_key() const;

  /// Heap bytes this context owns: e and the Montgomery context (or, for
  /// a degenerate modulus, the modulus itself).
  std::size_t memory_bytes() const;

  /// Same contract as rsa_verify(public_key(), ...).
  Status verify(HashAlg alg, BytesView message, BytesView signature) const;

 private:
  BigInt e_;
  std::size_t k_;  // modulus length in bytes
  std::optional<MontgomeryCtx> mont_;
  BigInt n_;  // held only when mont_ is empty (a degenerate modulus)
};

/// RSAES-PKCS1-v1_5 encryption; plaintext must be <= modulus_bytes - 11.
Result<Bytes> rsa_encrypt(const RsaPublicKey& key, BytesView plaintext,
                          const std::function<Bytes(std::size_t)>& random_bytes);

/// RSAES-PKCS1-v1_5 decryption.
Result<Bytes> rsa_decrypt(const RsaPrivateKey& key, BytesView ciphertext);

}  // namespace tp::crypto
