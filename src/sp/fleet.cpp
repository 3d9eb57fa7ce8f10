#include "sp/fleet.h"

#include "core/trusted_path_pal.h"

namespace tp::sp {

Fleet::Fleet(FleetConfig config) : config_(std::move(config)) {
  ca_ = std::make_unique<tpm::PrivacyCa>(
      concat(config_.seed, bytes_of(":ca")), config_.tpm_key_bits);

  sp_config_.golden_pcr17 = core::golden_pcr17();
  sp_config_.ca_public = ca_->public_key();
  sp_config_.seed = concat(config_.seed, bytes_of(":sp"));
  sp_config_.accepted_policies = {
      core::attestation_policy(drtm::DrtmTechnology::kAmdSkinit),
      core::attestation_policy(drtm::DrtmTechnology::kIntelTxt),
      core::attestation_policy(drtm::DrtmTechnology::kAmdSkinit, {},
                               tpm::QuoteFormat::kTpm2),
      core::attestation_policy(drtm::DrtmTechnology::kIntelTxt, {},
                               tpm::QuoteFormat::kTpm2),
  };
  sp_ = std::make_unique<ServiceProvider>(sp_config_);

  for (std::size_t i = 0; i < config_.num_clients; ++i) {
    Member member;
    member.id = "fleet-client-" + std::to_string(i);

    drtm::PlatformConfig pc;
    pc.platform_id = member.id;
    pc.seed = concat(config_.seed, bytes_of(":platform:" + member.id));
    pc.tpm_key_bits = config_.tpm_key_bits;
    if (!config_.chip_mix.empty()) {
      pc.chip_name = config_.chip_mix[i % config_.chip_mix.size()];
    }
    if (!config_.technology_mix.empty()) {
      pc.technology =
          config_.technology_mix[i % config_.technology_mix.size()];
    }
    if (!config_.backend_mix.empty()) {
      pc.backend = config_.backend_mix[i % config_.backend_mix.size()];
    }
    pc.tpm_faults = config_.tpm_faults;
    member.platform = std::make_unique<drtm::Platform>(pc);

    // Each member's link faults independently: fork the plan's seed by
    // member index so one scripted plan covers the whole fleet without
    // lockstep faults.
    net::NetParams member_net = config_.net;
    member_net.fault.seed = config_.net.fault.seed + 0x9e3779b97f4a7c15ull * i;
    member.link = std::make_unique<net::Link>(
        member_net, member.platform->clock(), SimRng(0xf1ee7 + i));
    member.link->b().set_service(
        [this](BytesView frame) { return sp_->handle_frame(frame); });

    // Per-backend credential: RSA AIK certificate or ECC AK certificate,
    // passed serialized (the client treats it as opaque).
    Bytes credential;
    if (member.platform->backend() == tpm::QuoteFormat::kTpm2) {
      credential =
          ca_->certify_key(
                 member.id,
                 tpm::AttestationKey::of(member.platform->tpm2().ak_public()))
              .serialize();
    } else {
      credential =
          ca_->certify(member.id, member.platform->tpm().aik_public())
              .serialize();
    }
    core::ClientConfig cc;
    cc.client_id = member.id;
    cc.key_bits = config_.client_key_bits;
    cc.retry = config_.client_retry;
    member.client = std::make_unique<core::TrustedPathClient>(
        *member.platform, member.link->a(), std::move(credential), cc);

    members_.push_back(std::move(member));
  }
}

void Fleet::route_frames_to(FrameHandler handler) {
  for (auto& member : members_) {
    member.link->b().set_service(
        [handler, id = member.id](BytesView frame) {
          return handler(id, frame);
        });
  }
}

std::size_t Fleet::enroll_all() {
  std::size_t ok = 0;
  for (auto& member : members_) {
    if (member.client->enroll().ok()) ++ok;
  }
  return ok;
}

}  // namespace tp::sp
