// Quote-format abstraction for mixed TPM 1.2 / TPM 2.0 fleets.
//
// The service provider, deployment and fleet layers must handle clients
// whose trust roots differ: TPM 1.2 endpoints quote SHA-1 PCR
// composites signed by an RSA AIK; TPM 2.0 endpoints produce
// TPMS_ATTEST-shaped quotes over SHA-256 banks signed by an ECDSA-P256
// attestation key. This header gives those layers a single vocabulary:
//
//   QuoteFormat            -- the wire tag (append-only, like RejectCode)
//   AttestationKey         -- a public key tagged with its format
//   AttestationVerifyContext -- cached signature verification that
//                               dispatches to RsaVerifyContext or
//                               EcdsaVerifyContext per format
//
// Quote *serialization* stays per-format (tpm/quote.h, tpm/tpm2_quote.h);
// this layer only abstracts what the SP stores and checks per client.
#pragma once

#include <optional>

#include "crypto/ecdsa.h"
#include "crypto/rsa.h"
#include "util/bytes.h"
#include "util/result.h"

namespace tp::tpm {

/// Wire tag for the attestation technology a client enrolls with.
/// Append-only: values are serialized in EnrollComplete and in AK
/// certificates, so existing tags must never be renumbered or removed.
enum class QuoteFormat : std::uint8_t {
  kTpm12 = 1,  // SHA-1 PCRs, TPM_Quote, RSA-2048 AIK
  kTpm2 = 2,   // SHA-256 PCRs, TPMS_ATTEST quote, ECDSA-P256 AK
};

/// Number of defined formats (sizing for per-backend counters).
inline constexpr std::size_t kNumQuoteFormats = 2;

/// Dense 0-based index for per-format arrays (counters, stats).
constexpr std::size_t quote_format_index(QuoteFormat f) {
  return f == QuoteFormat::kTpm2 ? 1 : 0;
}

constexpr const char* quote_format_name(QuoteFormat f) {
  return f == QuoteFormat::kTpm2 ? "tpm2" : "tpm12";
}

/// Wire tag -> format; rejects unknown tags (forward compatibility is
/// explicit rejection, not silent remap).
std::optional<QuoteFormat> quote_format_from_wire(std::uint8_t tag);

/// A public key together with the quote format it belongs to. Used both
/// for attestation keys (AIK / ECC-AK, certified by the privacy CA) and
/// for the per-client confirmation keys the SP stores after enrollment.
/// Exactly the member matching `format` is engaged.
struct AttestationKey {
  QuoteFormat format = QuoteFormat::kTpm12;
  std::optional<crypto::RsaPublicKey> rsa;      // kTpm12
  std::optional<crypto::EcdsaPublicKey> ecdsa;  // kTpm2

  static AttestationKey of(crypto::RsaPublicKey key);
  static AttestationKey of(crypto::EcdsaPublicKey key);

  /// u8 format tag || var key serialization.
  Bytes serialize() const;
  static Result<AttestationKey> deserialize(BytesView data);

  /// Canonical fingerprint: SHA-256 over the serialization (covers the
  /// format tag, so the same key material under two formats differs).
  Bytes fingerprint() const;

  bool operator==(const AttestationKey& other) const = default;
};

/// Parses raw public-key bytes (as carried in EnrollComplete's
/// confirmation_pubkey field) according to `format`.
Result<AttestationKey> parse_public_key(QuoteFormat format, BytesView data);

/// Per-client cached signature verification, format-dispatched. The SP
/// keeps one of these per enrolled client: RSA clients get the cached
/// Montgomery context, ECDSA clients the precomputed window tables. The
/// inner context holds the only copy of the key; this class keeps just
/// the format tag.
///
/// Immutable after construction; safe to share across threads.
class AttestationVerifyContext {
 public:
  explicit AttestationVerifyContext(AttestationKey key);

  QuoteFormat format() const { return format_; }
  /// The tagged key, rebuilt from the inner context's copy (callers
  /// serialize it for the journal and snapshots).
  AttestationKey key() const;

  /// Heap bytes this context owns: the per-scheme verify context (its
  /// key copy plus the precompute).
  std::size_t memory_bytes() const;

  /// Verifies `signature` over `message`. `alg` selects the RSA
  /// DigestInfo hash; the ECDSA backend is SHA-256-only and rejects any
  /// other request with kAuthFail.
  Status verify(crypto::HashAlg alg, BytesView message,
                BytesView signature) const;

 private:
  QuoteFormat format_;
  std::optional<crypto::RsaVerifyContext> rsa_;
  std::optional<crypto::EcdsaVerifyContext> ecdsa_;
};

}  // namespace tp::tpm
