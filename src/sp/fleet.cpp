#include "sp/fleet.h"

#include <optional>

#include "core/trusted_path_pal.h"

namespace tp::sp {

namespace {

// How member i's id and seeds derive from the config: the one place the
// harness branches on its size. A one-member fleet keeps the
// single-machine derivations that the differential goldens and the
// virtual-time benches pin; a larger fleet derives each member's id and
// seeds from its index.
struct MemberSeeds {
  std::string id;
  Bytes platform;
  std::uint64_t link;
  Bytes tls_client;
  /// The SP's session deadlines run on this member's SimClock (otherwise
  /// the SP's own timeline starts at t=0).
  bool clocks_sp;
};

MemberSeeds member_seeds(const FleetConfig& config, std::size_t i) {
  if (config.num_clients == 1) {
    return {config.client_id, concat(config.seed, bytes_of(":platform")),
            0x6e6574 ^ static_cast<std::uint64_t>(config.seed.size()),
            concat(config.seed, bytes_of(":tls-client")), true};
  }
  const std::string id = config.client_id + "-" + std::to_string(i);
  return {id, concat(config.seed, bytes_of(":platform:" + id)), 0xf1ee7 + i,
          concat(config.seed, bytes_of(":tls-client:" + id)), false};
}

template <typename T>
const T* round_robin(const std::vector<T>& mix, std::size_t i) {
  return mix.empty() ? nullptr : &mix[i % mix.size()];
}

}  // namespace

Fleet::Fleet(const FleetConfig& config) {
  ca_ = std::make_unique<tpm::PrivacyCa>(
      concat(config.seed, bytes_of(":ca")), config.tpm_key_bits);

  sp_config_.golden_pcr17 = core::golden_pcr17();
  sp_config_.ca_public = ca_->public_key();
  sp_config_.seed = concat(config.seed, bytes_of(":sp"));
  sp_config_.replay_cache_capacity = config.replay_cache_capacity;
  sp_config_.tx_session_capacity = config.tx_session_capacity;
  sp_config_.session_ttl = config.session_ttl;
  sp_config_.metrics = config.metrics;
  // The SP supports both platform flavours and both quote formats out of
  // the box (a mixed fleet talks to one SP).
  sp_config_.accepted_policies = {
      core::attestation_policy(drtm::DrtmTechnology::kAmdSkinit),
      core::attestation_policy(drtm::DrtmTechnology::kIntelTxt),
      core::attestation_policy(drtm::DrtmTechnology::kAmdSkinit, {},
                               tpm::QuoteFormat::kTpm2),
      core::attestation_policy(drtm::DrtmTechnology::kIntelTxt, {},
                               tpm::QuoteFormat::kTpm2),
  };

  // TLS stand-in: the SP's long-term key plays the server certificate.
  // The generator is consumed synchronously, so one stack DRBG (whose
  // HMAC context caches the key midstates across draws) suffices.
  std::optional<crypto::RsaPrivateKey> server_key;
  if (config.secure_transport) {
    crypto::HmacDrbg server_drbg(
        concat(config.seed, bytes_of(":tls-server")));
    server_key = crypto::rsa_generate(
        1024, [&](std::size_t n) { return server_drbg.generate(n); });
  }

  for (std::size_t i = 0; i < config.num_clients; ++i) {
    MemberSeeds seeds = member_seeds(config, i);
    Member member;
    member.id = std::move(seeds.id);

    drtm::PlatformConfig pc;
    pc.platform_id = member.id;
    pc.seed = std::move(seeds.platform);
    pc.tpm_key_bits = config.tpm_key_bits;
    if (auto* chip = round_robin(config.chip_mix, i)) pc.chip_name = *chip;
    if (auto* tech = round_robin(config.technology_mix, i)) {
      pc.technology = *tech;
    }
    if (auto* fmt = round_robin(config.backend_mix, i)) pc.backend = *fmt;
    pc.tpm_faults = config.tpm_faults;
    member.platform = std::make_unique<drtm::Platform>(pc);
    // Session deadlines live on the same virtual clock the platform and
    // link charge their costs to.
    if (seeds.clocks_sp) sp_config_.clock = &member.platform->clock();

    // Each member's link faults independently: fork the plan's seed by
    // member index so one scripted plan covers the whole fleet without
    // lockstep faults.
    net::NetParams member_net = config.net;
    member_net.fault.seed = config.net.fault.seed + 0x9e3779b97f4a7c15ull * i;
    member.link = std::make_unique<net::Link>(
        member_net, member.platform->clock(), SimRng(seeds.link));
    if (server_key) {
      member.secure_server = std::make_unique<net::SecureServerTransport>(
          *server_key,
          [this](BytesView frame) { return sp_->handle_frame(frame); });
      member.link->b().set_service(
          [server = member.secure_server.get()](BytesView frame) {
            return server->handle(frame);
          });
      member.secure_client = std::make_unique<net::SecureClientTransport>(
          member.link->a(), server_key->public_key(), seeds.tls_client);
    } else {
      member.link->b().set_service(
          [this](BytesView frame) { return sp_->handle_frame(frame); });
    }

    // Out-of-band credential issuance, per backend: the CA certifies the
    // RSA AIK (1.2) or the ECC AK (2.0); the client carries the
    // serialized certificate into EnrollComplete verbatim.
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
    cc.key_bits = config.client_key_bits;
    cc.retry = config.client_retry;
    cc.metrics = config.metrics;
    member.client = std::make_unique<core::TrustedPathClient>(
        *member.platform, member.link->a(), std::move(credential), cc);
    if (member.secure_client) {
      member.client->set_transport(member.secure_client.get());
    }

    members_.push_back(std::move(member));
  }
  sp_ = std::make_unique<ServiceProvider>(sp_config_);
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
