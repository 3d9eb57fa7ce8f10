#include "sp/attestation_port.h"

#include <string>

#include "tpm/privacy_ca.h"
#include "tpm/quote.h"
#include "tpm/tpm2_quote.h"

namespace tp::sp {

AttestationCryptoPort::AttestationCryptoPort(
    crypto::RsaPublicKey ca_public, Bytes golden_pcr17,
    std::vector<core::AttestationPolicy> accepted_policies,
    std::size_t expected_clients)
    : ca_public_(std::move(ca_public)),
      golden_pcr17_(std::move(golden_pcr17)),
      accepted_policies_(std::move(accepted_policies)) {
  // Pre-reserved so the steady-state hot path does not rehash.
  contexts_.reserve(expected_clients);
}

proto::RejectCode AttestationCryptoPort::verify_enrollment(
    const proto::EnrollEvidence& evidence) {
  // The checks are the same four for both quote formats -- certificate
  // chain, quote signature + nonce binding, attestation policy, key
  // parse -- but each step dispatches on the format because the wire
  // artifacts differ (AikCertificate/QuoteResult/RsaPublicKey vs
  // AkCertificate/Tpm2Quote/SEC1 point).
  const Bytes binding =
      core::enrollment_quote_binding(evidence.pubkey, evidence.nonce);
  std::vector<core::AttestationPolicy> policies = accepted_policies_;
  if (policies.empty()) {
    // Classic fallback: {PCR 17} == golden_pcr17, TPM 1.2 only. An SP
    // that admits 2.0 clients must publish kTpm2 policies.
    policies.push_back(core::AttestationPolicy{
        tpm::PcrSelection::of({17}), {golden_pcr17_}, "default",
        tpm::QuoteFormat::kTpm12});
  }
  const std::string client_id(evidence.client_id);

  if (evidence.format == static_cast<std::uint8_t>(tpm::QuoteFormat::kTpm2)) {
    // 1. AK certificate chains to the Privacy CA and carries an ECC AK.
    auto cert = tpm::AkCertificate::deserialize(evidence.certificate);
    if (!cert.ok()) return proto::RejectCode::kMalformedAikCertificate;
    if (!tpm::PrivacyCa::verify_key(ca_public_, cert.value()).ok()) {
      return proto::RejectCode::kUntrustedAikCertificate;
    }
    if (cert.value().key.format != tpm::QuoteFormat::kTpm2 ||
        !cert.value().key.ecdsa.has_value()) {
      return proto::RejectCode::kMalformedAikCertificate;
    }

    // 2. Quote: valid AK signature over the PCR digest + OUR binding.
    auto quote = tpm::Tpm2Quote::deserialize(evidence.quote);
    if (!quote.ok()) return proto::RejectCode::kMalformedQuote;
    if (!tpm::verify_tpm2_quote(*cert.value().key.ecdsa, quote.value(),
                                binding)
             .ok()) {
      return proto::RejectCode::kQuoteVerifyFailed;
    }

    // 3. A 2.0 quote carries H(values), not the values: match by
    // recomputing each kTpm2 policy's expected digest.
    bool policy_match = false;
    for (const auto& policy : policies) {
      if (policy.format != tpm::QuoteFormat::kTpm2 ||
          quote.value().selection != policy.selection) {
        continue;
      }
      auto expected = tpm::tpm2_pcr_digest(policy.values);
      if (expected.ok() &&
          ct_equal(expected.value(), quote.value().pcr_digest)) {
        policy_match = true;
        break;
      }
    }
    if (!policy_match) {
      return proto::RejectCode::kAttestationPolicyMismatch;
    }

    // 4. The confirmation key itself must parse (SEC1 P-256 point).
    auto key =
        tpm::parse_public_key(tpm::QuoteFormat::kTpm2, evidence.pubkey);
    if (!key.ok()) return proto::RejectCode::kMalformedPublicKey;
    // Build the cached verify context now (P-256 window-table
    // precompute), once per enrollment.
    contexts_.insert_or_assign(client_id,
                               tpm::AttestationVerifyContext(key.take()));
    return proto::RejectCode::kNone;
  }

  // ---- TPM 1.2 path (the seed's checks, verbatim) ----
  // 1. AIK certificate chains to the Privacy CA.
  auto cert = tpm::AikCertificate::deserialize(evidence.certificate);
  if (!cert.ok()) return proto::RejectCode::kMalformedAikCertificate;
  if (!tpm::PrivacyCa::verify(ca_public_, cert.value()).ok()) {
    return proto::RejectCode::kUntrustedAikCertificate;
  }

  // 2. Quote: valid AIK signature over PCR 17 and OUR nonce binding.
  auto quote = tpm::QuoteResult::deserialize(evidence.quote);
  if (!quote.ok()) return proto::RejectCode::kMalformedQuote;
  if (!tpm::verify_quote(cert.value().aik_public, quote.value(), binding)
           .ok()) {
    return proto::RejectCode::kQuoteVerifyFailed;
  }

  // 3. The quoted PCRs must match one accepted attestation policy: the
  // key was generated inside the GENUINE trusted-path PAL on a
  // supported platform flavour.
  bool policy_match = false;
  for (const auto& policy : policies) {
    if (policy.format != tpm::QuoteFormat::kTpm12 ||
        quote.value().selection != policy.selection ||
        quote.value().pcr_values.size() != policy.values.size()) {
      continue;
    }
    bool all_equal = true;
    for (std::size_t i = 0; i < policy.values.size(); ++i) {
      if (!ct_equal(quote.value().pcr_values[i], policy.values[i])) {
        all_equal = false;
        break;
      }
    }
    if (all_equal) {
      policy_match = true;
      break;
    }
  }
  if (!policy_match) return proto::RejectCode::kAttestationPolicyMismatch;

  // 4. The key itself must parse.
  auto pk = crypto::RsaPublicKey::deserialize(evidence.pubkey);
  if (!pk.ok()) return proto::RejectCode::kMalformedPublicKey;

  // Build the cached verify context now (R^2-mod-n precompute), once
  // per enrollment, so every later confirmation verify skips it.
  contexts_.insert_or_assign(
      client_id,
      tpm::AttestationVerifyContext(tpm::AttestationKey::of(pk.take())));
  return proto::RejectCode::kNone;
}

std::size_t AttestationCryptoPort::enrolled_memory_bytes() const {
  using Node = std::pair<const std::string, tpm::AttestationVerifyContext>;
  constexpr std::size_t kNodeBytes =
      sizeof(Node) + sizeof(void*) + sizeof(std::size_t);
  std::size_t n = 0;
  for (const auto& [id, ctx] : contexts_) {
    n += kNodeBytes + id.size() + ctx.memory_bytes();
  }
  return n;
}

proto::CryptoPort::ConfirmHandle AttestationCryptoPort::confirm_handle(
    std::string_view client_id) const {
  const auto it = contexts_.find(std::string(client_id));
  return it == contexts_.end() ? nullptr : &it->second;
}

std::uint8_t AttestationCryptoPort::format_of(ConfirmHandle handle) const {
  const auto* ctx = static_cast<const tpm::AttestationVerifyContext*>(handle);
  return static_cast<std::uint8_t>(ctx->format());
}

bool AttestationCryptoPort::verify_confirmation(ConfirmHandle handle,
                                                BytesView statement,
                                                BytesView signature) {
  const auto* ctx = static_cast<const tpm::AttestationVerifyContext*>(handle);
  return ctx->verify(crypto::HashAlg::kSha256, statement, signature).ok();
}

}  // namespace tp::sp
