#include "tpm/attestation.h"

#include <utility>

#include "crypto/sha256.h"
#include "util/serial.h"

namespace tp::tpm {

std::optional<QuoteFormat> quote_format_from_wire(std::uint8_t tag) {
  switch (tag) {
    case static_cast<std::uint8_t>(QuoteFormat::kTpm12):
      return QuoteFormat::kTpm12;
    case static_cast<std::uint8_t>(QuoteFormat::kTpm2):
      return QuoteFormat::kTpm2;
    default:
      return std::nullopt;
  }
}

AttestationKey AttestationKey::of(crypto::RsaPublicKey key) {
  AttestationKey out;
  out.format = QuoteFormat::kTpm12;
  out.rsa = std::move(key);
  return out;
}

AttestationKey AttestationKey::of(crypto::EcdsaPublicKey key) {
  AttestationKey out;
  out.format = QuoteFormat::kTpm2;
  out.ecdsa = std::move(key);
  return out;
}

Bytes AttestationKey::serialize() const {
  BinaryWriter w;
  w.u8(static_cast<std::uint8_t>(format));
  if (format == QuoteFormat::kTpm2) {
    w.var_bytes(ecdsa ? ecdsa->serialize() : Bytes());
  } else {
    w.var_bytes(rsa ? rsa->serialize() : Bytes());
  }
  return w.take();
}

Result<AttestationKey> AttestationKey::deserialize(BytesView data) {
  BinaryReader r(data);
  auto tag = r.u8();
  if (!tag.ok()) return tag.error();
  const auto format = quote_format_from_wire(tag.value());
  if (!format) {
    return Error{Err::kInvalidArgument, "AttestationKey: unknown format tag"};
  }
  auto key_bytes = r.var_bytes();
  if (!key_bytes.ok()) return key_bytes.error();
  if (auto s = r.expect_exhausted(); !s.ok()) return s.error();
  auto parsed = parse_public_key(*format, key_bytes.value());
  if (!parsed.ok()) return parsed.error();
  return parsed.take();
}

Bytes AttestationKey::fingerprint() const {
  return crypto::Sha256::hash(serialize());
}

Result<AttestationKey> parse_public_key(QuoteFormat format, BytesView data) {
  if (format == QuoteFormat::kTpm2) {
    auto key = crypto::EcdsaPublicKey::deserialize(data);
    if (!key.ok()) return key.error();
    return AttestationKey::of(key.take());
  }
  auto key = crypto::RsaPublicKey::deserialize(data);
  if (!key.ok()) return key.error();
  return AttestationKey::of(key.take());
}

AttestationVerifyContext::AttestationVerifyContext(AttestationKey key)
    : format_(key.format) {
  if (format_ == QuoteFormat::kTpm2) {
    ecdsa_.emplace(key.ecdsa ? std::move(*key.ecdsa)
                             : crypto::EcdsaPublicKey{});
  } else {
    rsa_.emplace(key.rsa ? std::move(*key.rsa) : crypto::RsaPublicKey{});
  }
}

AttestationKey AttestationVerifyContext::key() const {
  return format_ == QuoteFormat::kTpm2
             ? AttestationKey::of(ecdsa_->public_key())
             : AttestationKey::of(rsa_->public_key());
}

std::size_t AttestationVerifyContext::memory_bytes() const {
  return rsa_ ? rsa_->memory_bytes() : ecdsa_->memory_bytes();
}

Status AttestationVerifyContext::verify(crypto::HashAlg alg, BytesView message,
                                        BytesView signature) const {
  if (format_ == QuoteFormat::kTpm2) {
    // The 2.0 backend pairs P-256 with SHA-256 exclusively; a request
    // for any other hash is a caller bug surfaced as a verify failure.
    if (alg != crypto::HashAlg::kSha256) {
      return Error{Err::kAuthFail,
                   "AttestationVerifyContext: ECDSA backend is SHA-256 only"};
    }
    return ecdsa_->verify(message, signature);
  }
  return rsa_->verify(alg, message, signature);
}

}  // namespace tp::tpm
