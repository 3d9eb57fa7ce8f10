#include "sp/deployment.h"

#include <memory>

#include "core/trusted_path_pal.h"

namespace tp::sp {

Deployment::Deployment(DeploymentConfig config)
    : config_(std::move(config)) {
  drtm::PlatformConfig pc;
  pc.platform_id = config_.client_id;
  pc.chip_name = config_.chip_name;
  pc.seed = concat(config_.seed, bytes_of(":platform"));
  pc.tpm_key_bits = config_.tpm_key_bits;
  pc.drtm_costs = config_.drtm_costs;
  pc.technology = config_.technology;
  pc.txt = config_.txt;
  pc.tpm_faults = config_.tpm_faults;
  pc.backend = config_.backend;
  platform_ = std::make_unique<drtm::Platform>(pc);

  ca_ = std::make_unique<tpm::PrivacyCa>(concat(config_.seed, bytes_of(":ca")),
                                         config_.tpm_key_bits);

  SpConfig sp_config;
  sp_config.golden_pcr17 = core::golden_pcr17();
  sp_config.ca_public = ca_->public_key();
  sp_config.seed = concat(config_.seed, bytes_of(":sp"));
  sp_config.replay_cache_capacity = config_.replay_cache_capacity;
  sp_config.enroll_session_capacity = config_.enroll_session_capacity;
  sp_config.tx_session_capacity = config_.tx_session_capacity;
  sp_config.session_ttl = config_.session_ttl;
  sp_config.metrics = config_.metrics;
  // Session deadlines live on the same virtual clock the platform and
  // link charge their costs to.
  sp_config.clock = &platform_->clock();
  // The SP supports both platform flavours and both quote formats out of
  // the box (a mixed fleet talks to one SP).
  sp_config.accepted_policies = {
      core::attestation_policy(drtm::DrtmTechnology::kAmdSkinit),
      core::attestation_policy(drtm::DrtmTechnology::kIntelTxt, config_.txt),
      core::attestation_policy(drtm::DrtmTechnology::kAmdSkinit, {},
                               tpm::QuoteFormat::kTpm2),
      core::attestation_policy(drtm::DrtmTechnology::kIntelTxt, config_.txt,
                               tpm::QuoteFormat::kTpm2),
  };
  sp_ = std::make_unique<ServiceProvider>(sp_config);

  link_ = std::make_unique<net::Link>(
      config_.net, platform_->clock(),
      SimRng(0x6e6574 ^ static_cast<std::uint64_t>(config_.seed.size())));
  if (config_.secure_transport) {
    // TLS stand-in: the SP's long-term key plays the server certificate.
    // The generator is consumed synchronously, so one stack DRBG (whose
    // HMAC context caches the key midstates across draws) suffices.
    crypto::HmacDrbg server_drbg(
        concat(config_.seed, bytes_of(":tls-server")));
    const crypto::RsaPrivateKey server_key = crypto::rsa_generate(
        1024, [&](std::size_t n) { return server_drbg.generate(n); });
    secure_server_ = std::make_unique<net::SecureServerTransport>(
        server_key,
        [this](BytesView frame) { return sp_->handle_frame(frame); });
    link_->b().set_service(
        [this](BytesView frame) { return secure_server_->handle(frame); });
    secure_client_ = std::make_unique<net::SecureClientTransport>(
        link_->a(), server_key.public_key(),
        concat(config_.seed, bytes_of(":tls-client")));
  } else {
    link_->b().set_service(
        [this](BytesView frame) { return sp_->handle_frame(frame); });
  }

  // Out-of-band credential issuance, per backend: the CA certifies the
  // RSA AIK (1.2) or the ECC AK (2.0); the client carries the serialized
  // certificate into EnrollComplete verbatim.
  Bytes credential;
  if (config_.backend == tpm::QuoteFormat::kTpm2) {
    credential =
        ca_->certify_key(config_.client_id,
                         tpm::AttestationKey::of(platform_->tpm2().ak_public()))
            .serialize();
  } else {
    credential =
        ca_->certify(config_.client_id, platform_->tpm().aik_public())
            .serialize();
  }
  core::ClientConfig cc;
  cc.client_id = config_.client_id;
  cc.key_bits = config_.client_key_bits;
  cc.retry = config_.client_retry;
  cc.metrics = config_.metrics;
  client_ = std::make_unique<core::TrustedPathClient>(
      *platform_, link_->a(), std::move(credential), cc);
  if (secure_client_) client_->set_transport(secure_client_.get());
}

void Deployment::route_frames_to(FrameHandler handler) {
  link_->b().set_service(
      [handler = std::move(handler), id = config_.client_id](BytesView frame) {
        return handler(id, frame);
      });
}

}  // namespace tp::sp
