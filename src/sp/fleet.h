// Fleet: many client machines against ONE service provider.
//
// The single-client Deployment answers "does the protocol work"; the
// fleet answers the deployment questions -- does one SP instance handle a
// population of heterogeneous platforms (mixed TPM chips, mixed DRTM
// technologies), and what does the population-level latency distribution
// look like? Experiment F3's simulation arm runs on this.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "drtm/platform.h"
#include "net/channel.h"
#include "sp/service_provider.h"
#include "tpm/privacy_ca.h"

namespace tp::sp {

struct FleetConfig {
  std::size_t num_clients = 8;
  Bytes seed = bytes_of("fleet");
  std::size_t tpm_key_bits = 768;
  std::uint32_t client_key_bits = 768;
  /// Per-member link parameters; net.fault scripts deterministic faults
  /// on every member's link (each draws an independent stream forked
  /// from net.fault.seed by member index).
  net::NetParams net;
  /// Chips are assigned round-robin from this list (empty -> default).
  std::vector<std::string> chip_mix;
  /// Technologies assigned round-robin (empty -> all AMD).
  std::vector<drtm::DrtmTechnology> technology_mix;
  /// Quote formats assigned round-robin (empty -> all TPM 1.2). E.g.
  /// {kTpm12, kTpm2} models the mid-migration fleet: half the machines
  /// quote SHA-1 PCRs under an RSA AIK, half SHA-256 under an ECC AK,
  /// and the one SP verifies both.
  std::vector<tpm::QuoteFormat> backend_mix;

  /// Client-side retransmission policy for every member (default: one
  /// attempt, no retry).
  core::RetryPolicy client_retry;
  /// Transient-fault model for every member's TPM.
  tpm::TpmFaultProfile tpm_faults;
};

class Fleet {
 public:
  explicit Fleet(FleetConfig config);

  std::size_t size() const { return members_.size(); }
  ServiceProvider& sp() { return *sp_; }
  tpm::PrivacyCa& ca() { return *ca_; }

  core::TrustedPathClient& client(std::size_t i) {
    return *members_.at(i).client;
  }
  drtm::Platform& platform(std::size_t i) {
    return *members_.at(i).platform;
  }
  const std::string& client_id(std::size_t i) const {
    return members_.at(i).id;
  }
  /// Member i's TPM generation (follows backend_mix round-robin).
  tpm::QuoteFormat backend(std::size_t i) {
    return members_.at(i).platform->backend();
  }
  net::Endpoint& endpoint(std::size_t i) {
    return members_.at(i).link->a();
  }
  /// Member i's full link (fault-injection counters live here).
  net::Link& link(std::size_t i) { return *members_.at(i).link; }

  /// The SP configuration this fleet was built against (same CA root,
  /// golden measurement and policies). Lets an external serving runtime
  /// (cluster::VerifierCluster) spin up compatible verifier shards.
  const SpConfig& sp_config() const { return sp_config_; }

  /// Redirects every member's server-side endpoint to `handler`
  /// (client id, request frame) -> response frame, replacing the built-in
  /// single ServiceProvider. Used to put the whole fleet behind a
  /// cluster::VerifierCluster.
  using FrameHandler = std::function<Bytes(const std::string&, BytesView)>;
  void route_frames_to(FrameHandler handler);

  /// Enrolls every member; returns how many succeeded.
  std::size_t enroll_all();

 private:
  struct Member {
    std::string id;
    std::unique_ptr<drtm::Platform> platform;
    std::unique_ptr<net::Link> link;
    std::unique_ptr<core::TrustedPathClient> client;
  };

  FleetConfig config_;
  SpConfig sp_config_;
  std::unique_ptr<tpm::PrivacyCa> ca_;
  std::unique_ptr<ServiceProvider> sp_;
  std::vector<Member> members_;
};

}  // namespace tp::sp
