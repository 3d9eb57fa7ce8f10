// The real CryptoPort backend: attestation-grade crypto with cached
// per-client verify contexts.
//
// Owns the client -> tpm::AttestationVerifyContext map the SP used to
// hold inline (the enrolled public key plus the per-scheme precompute --
// Montgomery context for RSA moduli, window tables for P-256 points --
// built once at enrollment so the per-transaction verify skips that
// setup). verify_enrollment runs the four evidence checks the seed ran,
// per quote format; verify_confirmation checks one signature against the
// client's cached tpm::AttestationVerifyContext.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "core/trusted_path_pal.h"
#include "crypto/rsa.h"
#include "proto/crypto_port.h"
#include "tpm/attestation.h"

namespace tp::sp {

class AttestationCryptoPort final : public proto::CryptoPort {
 public:
  /// `ca_public` / `golden_pcr17` / `accepted_policies` mirror the
  /// SpConfig fields of the same names (empty policies fall back to the
  /// classic TPM 1.2 {PCR 17} == golden policy at verify time).
  AttestationCryptoPort(crypto::RsaPublicKey ca_public, Bytes golden_pcr17,
                       std::vector<core::AttestationPolicy> accepted_policies,
                       std::size_t expected_clients);

  proto::RejectCode verify_enrollment(
      const proto::EnrollEvidence& evidence) override;
  ConfirmHandle confirm_handle(std::string_view client_id) const override;
  std::uint8_t format_of(ConfirmHandle handle) const override;
  bool verify_confirmation(ConfirmHandle handle, BytesView statement,
                           BytesView signature) override;

  // ---- backend-specific surface (shell bookkeeping & handoff) ----
  bool is_enrolled(const std::string& client_id) const {
    return contexts_.count(client_id) != 0;
  }
  std::size_t enrolled_count() const { return contexts_.size(); }
  /// Bytes the enrolled clients pin -- the term of the SP's footprint
  /// that grows with the population. Per client: its hash-map node (the
  /// id and context objects plus the node's link and cached hash), the
  /// id's characters, and the context's heap (its key copy and
  /// precompute). The bucket array, sized at construction, is not
  /// counted.
  std::size_t enrolled_memory_bytes() const;
  /// The context map itself, for the SP's ShardState export and import:
  /// export_state and extract_for_handoff serialize each client's key
  /// (the handoff also erases the moved clients), and import_state
  /// rebuilds a context, precompute included, from each key blob.
  std::unordered_map<std::string, tpm::AttestationVerifyContext>& contexts() {
    return contexts_;
  }
  const std::unordered_map<std::string, tpm::AttestationVerifyContext>&
  contexts() const {
    return contexts_;
  }

 private:
  crypto::RsaPublicKey ca_public_;
  Bytes golden_pcr17_;
  std::vector<core::AttestationPolicy> accepted_policies_;
  std::unordered_map<std::string, tpm::AttestationVerifyContext> contexts_;
};

}  // namespace tp::sp
