// Deployment: one client machine + Privacy CA + service provider wired
// over a simulated link.
//
// This is the five-line entry point a downstream user starts from (see
// examples/quickstart.cpp): it performs the out-of-band setup the paper
// assumes -- the CA certifies the platform's AIK, the SP is provisioned
// with the CA root and the golden PAL measurement -- and exposes the
// pieces for direct use.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/client.h"
#include "drtm/platform.h"
#include "net/channel.h"
#include "net/secure_channel.h"
#include "sp/service_provider.h"
#include "tpm/privacy_ca.h"

namespace tp::sp {

struct DeploymentConfig {
  std::string client_id = "client-0";
  std::string chip_name;                 // empty -> default (Infineon)
  Bytes seed = bytes_of("deployment");
  std::size_t tpm_key_bits = 1024;       // AIK / CA key size
  std::uint32_t client_key_bits = 1024;  // confirmation key size
                                         // (1.2 only; 2.0 is P-256)
  /// TPM generation of the client machine. kTpm2 swaps the RSA AIK for
  /// an ECC AK, SHA-1 PCRs for SHA-256, and the RSA confirmation key for
  /// P-256 -- the SP accepts both either way (it is provisioned with
  /// policies for every flavour x format combination).
  tpm::QuoteFormat backend = tpm::QuoteFormat::kTpm12;
  /// Link parameters; net.fault is the deterministic fault plan the
  /// chaos experiments script (inert by default).
  net::NetParams net;
  drtm::DrtmCosts drtm_costs;
  drtm::DrtmTechnology technology = drtm::DrtmTechnology::kAmdSkinit;
  drtm::TxtArtifacts txt;                // used only for kIntelTxt

  /// Client-side retransmission policy (default: one attempt, no retry).
  core::RetryPolicy client_retry;
  /// Transient-fault model for the client machine's TPM.
  tpm::TpmFaultProfile tpm_faults;
  /// Shared registry for the SP's and client's counters (nullptr -> the
  /// SP owns a private registry and the client goes uncounted).
  obs::Registry* metrics = nullptr;

  /// Wrap the client<->SP link in the authenticated-encryption channel
  /// (the deployment's TLS stand-in). Off by default: the trusted path's
  /// guarantees are end-to-end and most tests exercise them directly.
  bool secure_transport = false;

  /// Forwarded to SpConfig::replay_cache_capacity (tests shrink it to
  /// exercise eviction).
  std::size_t replay_cache_capacity = 1 << 16;

  /// Forwarded to the SP's bounded session tables (tests shrink them to
  /// exercise eviction; see SpConfig for semantics). The deployment also
  /// points the SP's session clock at the platform's SimClock, so
  /// protocol deadlines move with simulated time.
  std::size_t enroll_session_capacity = 1024;
  std::size_t tx_session_capacity = 4096;
  SimDuration session_ttl = SimDuration::seconds(120);
};

class Deployment {
 public:
  explicit Deployment(DeploymentConfig config);

  drtm::Platform& platform() { return *platform_; }
  SimClock& clock() { return platform_->clock(); }
  ServiceProvider& sp() { return *sp_; }
  tpm::PrivacyCa& ca() { return *ca_; }
  core::TrustedPathClient& client() { return *client_; }
  /// The client's endpoint (the SP side answers via its service handler).
  net::Endpoint& client_endpoint() { return link_->a(); }
  net::Link& link() { return *link_; }
  const DeploymentConfig& config() const { return config_; }

  /// Set iff secure_transport is on.
  net::SecureServerTransport* secure_server() {
    return secure_server_.get();
  }

  /// Reroutes the client's frames from the built-in single-threaded SP to
  /// `handler` -- a svc::VerifierService or cluster::VerifierCluster
  /// front end (mirrors Fleet::route_frames_to). Replaces the link's
  /// server-side service wholesale, so it composes with the plaintext
  /// transport only; with secure_transport on the TLS stand-in keeps
  /// terminating frames at the built-in SP.
  using FrameHandler = std::function<Bytes(const std::string&, BytesView)>;
  void route_frames_to(FrameHandler handler);

 private:
  DeploymentConfig config_;
  std::unique_ptr<drtm::Platform> platform_;
  std::unique_ptr<tpm::PrivacyCa> ca_;
  std::unique_ptr<ServiceProvider> sp_;
  std::unique_ptr<net::Link> link_;
  std::unique_ptr<net::SecureServerTransport> secure_server_;
  std::unique_ptr<net::SecureClientTransport> secure_client_;
  std::unique_ptr<core::TrustedPathClient> client_;
};

}  // namespace tp::sp
