// CryptoPort: the crypto boundary of the protocol core.
//
// SpCore decides WHAT to verify; a CryptoPort decides whether the bytes
// check out. The shell (sp::ServiceProvider) plugs in the real backend
// -- certificate chains, quote signatures, cached per-client
// AttestationVerifyContexts (sp/attestation_port.h) -- while the model
// checker plugs in a symbolic backend whose verdicts are Dolev-Yao
// facts ("this signature tag is genuine for that nonce"). Everything
// above the port is identical between the two, which is what makes the
// explored model faithful to the deployed shell.
//
// The interface is deliberately message-agnostic (byte views + a wire
// format tag, not core::EnrollComplete) so the proto layer keeps its
// position under core in the dependency order.
#pragma once

#include <cstdint>
#include <string_view>

#include "proto/reject_code.h"
#include "util/bytes.h"

namespace tp::proto {

/// The evidence carried by a phase-2 enrollment message, plus the
/// challenge nonce it must bind.
struct EnrollEvidence {
  std::string_view client_id;
  std::uint8_t format = 0;  // wire value of tpm::QuoteFormat
  BytesView pubkey;         // serialized confirmation public key
  BytesView quote;          // serialized attestation quote
  BytesView certificate;    // serialized attestation-key certificate
  BytesView nonce;          // the session's challenge nonce
};

class CryptoPort {
 public:
  /// Opaque per-client confirmation-verify state (the real backend hands
  /// out its cached AttestationVerifyContext). nullptr == not enrolled.
  /// A handle stays valid until that client's enrollment is replaced or
  /// removed.
  using ConfirmHandle = const void*;

  virtual ~CryptoPort() = default;

  /// Full enrollment-evidence check -- certificate chain, quote
  /// signature + nonce binding, attestation policy, key parse -- in
  /// order; returns the first failing RejectCode or kNone. On kNone the
  /// port caches whatever per-client verify state later confirmations
  /// need (the enrollment is registered).
  virtual RejectCode verify_enrollment(const EnrollEvidence& evidence) = 0;

  virtual ConfirmHandle confirm_handle(std::string_view client_id) const = 0;

  /// Wire value of the quote format behind an enrolled handle.
  virtual std::uint8_t format_of(ConfirmHandle handle) const = 0;

  /// One confirmation-signature check over `statement`.
  virtual bool verify_confirmation(ConfirmHandle handle, BytesView statement,
                                   BytesView signature) = 0;
};

}  // namespace tp::proto
