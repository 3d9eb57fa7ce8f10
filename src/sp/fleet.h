// Fleet: N client machines + one Privacy CA + one service provider, wired
// over simulated links.
//
// A one-member fleet is the paper's deployment -- one client machine
// against one SP -- and the five-line entry point a downstream user
// starts from (see examples/quickstart.cpp). The harness performs the
// out-of-band setup the paper assumes -- the CA certifies every
// platform's AIK, the SP is provisioned with the CA root and the golden
// PAL measurement -- and exposes the pieces for direct use. A larger
// fleet answers the deployment questions: does one SP instance handle a
// population of heterogeneous platforms (mixed TPM chips, DRTM
// technologies and TPM generations)?
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "drtm/platform.h"
#include "net/channel.h"
#include "net/secure_channel.h"
#include "sp/service_provider.h"
#include "tpm/privacy_ca.h"

namespace tp::sp {

struct FleetConfig {
  std::size_t num_clients = 1;
  /// A one-member fleet's client id; a larger fleet names its members
  /// "<client_id>-<i>".
  std::string client_id = "fleet-client";
  Bytes seed = bytes_of("deployment");
  std::size_t tpm_key_bits = 1024;       // AIK / CA key size
  std::uint32_t client_key_bits = 1024;  // confirmation key size
                                         // (1.2 only; 2.0 is P-256)
  /// Per-member link parameters; net.fault is the deterministic fault
  /// plan the chaos experiments script (inert by default). Each member
  /// draws an independent fault stream forked from net.fault.seed by
  /// member index (member 0 uses the plan's own seed).
  net::NetParams net;
  /// Chips, DRTM technologies and TPM generations are assigned
  /// round-robin from these lists (empty -> the default chip, AMD
  /// SKINIT, TPM 1.2); {x} gives every member x. kTpm2 swaps the RSA AIK
  /// for an ECC AK, SHA-1 PCRs for SHA-256, and the RSA confirmation key
  /// for P-256. A backend_mix of {kTpm12, kTpm2} models the
  /// mid-migration fleet; the one SP verifies both (it is provisioned
  /// with policies for every technology x format combination).
  std::vector<std::string> chip_mix;
  std::vector<drtm::DrtmTechnology> technology_mix;
  std::vector<tpm::QuoteFormat> backend_mix;

  /// Client-side retransmission policy for every member (default: one
  /// attempt, no retry).
  core::RetryPolicy client_retry;
  /// Transient-fault model for every member's TPM.
  tpm::TpmFaultProfile tpm_faults;
  /// Shared registry for the SP's and the clients' counters (nullptr ->
  /// the SP owns a private registry and the clients go uncounted).
  obs::Registry* metrics = nullptr;

  /// Wrap every member's link in the authenticated-encryption channel
  /// (the deployment's TLS stand-in). Off by default: the trusted path's
  /// guarantees are end-to-end and most tests exercise them directly.
  bool secure_transport = false;

  /// Forwarded to the SP (tests shrink the bounds to exercise eviction;
  /// see SpConfig for semantics). A one-member fleet also points the
  /// SP's session clock at the platform's SimClock, so protocol
  /// deadlines move with simulated time.
  std::size_t replay_cache_capacity = 1 << 16;
  std::size_t tx_session_capacity = 4096;
  SimDuration session_ttl = SimDuration::seconds(120);
};

class Fleet {
 public:
  explicit Fleet(const FleetConfig& config);
  // The links' services and the clients hold pointers into the fleet.
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::size_t size() const { return members_.size(); }
  ServiceProvider& sp() { return *sp_; }
  tpm::PrivacyCa& ca() { return *ca_; }

  /// Member i; the default names a one-member fleet's only machine.
  core::TrustedPathClient& client(std::size_t i = 0) {
    return *members_.at(i).client;
  }
  drtm::Platform& platform(std::size_t i = 0) {
    return *members_.at(i).platform;
  }
  const std::string& client_id(std::size_t i = 0) const {
    return members_.at(i).id;
  }
  /// Member i's TPM generation (follows backend_mix round-robin).
  tpm::QuoteFormat backend(std::size_t i = 0) {
    return members_.at(i).platform->backend();
  }
  /// Member i's client-side endpoint (the SP side answers via its
  /// service handler).
  net::Endpoint& endpoint(std::size_t i = 0) {
    return members_.at(i).link->a();
  }
  /// Member i's full link (fault-injection counters live here).
  net::Link& link(std::size_t i = 0) { return *members_.at(i).link; }
  /// Set iff secure_transport is on.
  net::SecureServerTransport* secure_server(std::size_t i = 0) {
    return members_.at(i).secure_server.get();
  }

  /// The SP configuration this fleet was built against (same CA root,
  /// golden measurement and policies). Lets an external serving runtime
  /// (cluster::VerifierCluster) spin up compatible verifier shards.
  const SpConfig& sp_config() const { return sp_config_; }

  /// Redirects every member's server-side endpoint to `handler`
  /// (client id, request frame) -> response frame, replacing the built-in
  /// single ServiceProvider -- e.g. to put the fleet behind a
  /// svc::VerifierService or cluster::VerifierCluster. It replaces the
  /// link's service wholesale, so it composes with the plaintext
  /// transport only.
  using FrameHandler = std::function<Bytes(const std::string&, BytesView)>;
  void route_frames_to(FrameHandler handler);

  /// Enrolls every member; returns how many succeeded.
  std::size_t enroll_all();

 private:
  struct Member {
    std::string id;
    std::unique_ptr<drtm::Platform> platform;
    std::unique_ptr<net::Link> link;
    std::unique_ptr<net::SecureServerTransport> secure_server;
    std::unique_ptr<net::SecureClientTransport> secure_client;
    std::unique_ptr<core::TrustedPathClient> client;
  };

  SpConfig sp_config_;
  std::unique_ptr<tpm::PrivacyCa> ca_;
  std::unique_ptr<ServiceProvider> sp_;
  std::vector<Member> members_;
};

}  // namespace tp::sp
