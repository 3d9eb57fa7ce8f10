// Authenticated-encryption transport: the simulation's stand-in for the
// TLS connection the deployed system runs over.
//
// The trusted path's guarantees do not DEPEND on transport secrecy (every
// security decision is end-to-end: signatures, quotes, nonces), but the
// deployment assumes an SSL channel for confidentiality and basic server
// authentication, so the substrate exists and can be switched on per
// deployment (FleetConfig::secure_transport).
//
// Construction (TLS-shaped, deliberately minimal):
//   handshake: client draws a 32-byte master secret, RSA-encrypts it to
//              the server's public key; both sides derive four keys
//              (enc/mac x direction) with HMAC-SHA256 as the PRF;
//   records:   AES-256-CTR encryption, HMAC-SHA256 over
//              (direction || sequence || ciphertext), strictly
//              monotonic sequence numbers per direction (replay-proof).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "net/channel.h"
#include "util/bytes.h"
#include "util/result.h"

namespace tp::net {

/// Request/response transport abstraction used by the protocol client.
class RpcTransport {
 public:
  virtual ~RpcTransport() = default;
  /// Sends a request frame and waits for the peer's response frame.
  virtual Result<Bytes> exchange(BytesView request) = 0;
  /// Pulls one already-delivered response frame without sending anything
  /// (retry path: duplicated, reordered or late responses queued behind
  /// the one exchange() consumed). kTimeout when nothing is pending;
  /// kUnsupported for transports with no pull-only receive.
  virtual Result<Bytes> receive_pending() {
    return Error{Err::kUnsupported, "transport: no pull-only receive"};
  }
};

/// Plaintext transport over an Endpoint (the default).
class PlainRpc : public RpcTransport {
 public:
  explicit PlainRpc(Endpoint& endpoint) : endpoint_(&endpoint) {}
  Result<Bytes> exchange(BytesView request) override;
  Result<Bytes> receive_pending() override;

 private:
  Endpoint* endpoint_;
};

/// Client half of the secure channel; performs the handshake lazily on
/// the first exchange.
class SecureClientTransport : public RpcTransport {
 public:
  SecureClientTransport(Endpoint& endpoint,
                        crypto::RsaPublicKey server_public, BytesView seed);
  ~SecureClientTransport() override;

  Result<Bytes> exchange(BytesView request) override;
  Result<Bytes> receive_pending() override;

  bool handshaken() const { return session_ != nullptr; }

 private:
  Status handshake();

  Endpoint* endpoint_;
  crypto::RsaPublicKey server_public_;
  crypto::HmacDrbg drbg_;
  struct Session;
  std::unique_ptr<Session> session_;
};

/// Server half: wraps an inner (plaintext) frame handler. Install as the
/// Endpoint service: `ep.set_service([&](BytesView f){ return s.handle(f); })`.
class SecureServerTransport {
 public:
  SecureServerTransport(crypto::RsaPrivateKey server_key,
                        std::function<Bytes(BytesView)> inner);
  ~SecureServerTransport();

  /// Handles one frame: a handshake establishes the session; records are
  /// decrypted, passed to the inner handler, and the response encrypted.
  /// Invalid frames get an empty-payload error record (never a crash).
  Bytes handle(BytesView frame);

  std::uint64_t records_rejected() const { return rejected_; }

 private:
  crypto::RsaPrivateKey server_key_;
  std::function<Bytes(BytesView)> inner_;
  struct Session;
  std::unique_ptr<Session> session_;
  std::uint64_t rejected_ = 0;
};

}  // namespace tp::net
