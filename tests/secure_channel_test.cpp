// Secure-transport tests: handshake, record protection (confidentiality,
// integrity, replay), and the full protocol running over the channel.
#include <gtest/gtest.h>

#include <memory>

#include "crypto/drbg.h"
#include "net/secure_channel.h"
#include "pal/human_agent.h"
#include "sp/fleet.h"

namespace tp::net {
namespace {

crypto::RsaPrivateKey server_key() {
  static const crypto::RsaPrivateKey key = [] {
    auto drbg = std::make_shared<crypto::HmacDrbg>(bytes_of("sc-server"));
    return crypto::rsa_generate(
        768, [drbg](std::size_t n) { return drbg->generate(n); });
  }();
  return key;
}

struct Harness {
  Harness()
      : link(NetParams{}, clock, SimRng(1)),
        server(server_key(),
               [this](BytesView req) {
                 last_server_request.assign(req.begin(), req.end());
                 Bytes resp = bytes_of("resp:");
                 append(resp, req);
                 return resp;
               }),
        client(link.a(), server_key().public_key(), bytes_of("seed")) {
    link.b().set_service(
        [this](BytesView frame) { return server.handle(frame); });
  }

  SimClock clock;
  Link link;
  SecureServerTransport server;
  SecureClientTransport client;
  Bytes last_server_request;
};

TEST(SecureChannel, ExchangeRoundTrip) {
  Harness h;
  auto reply = h.client.exchange(bytes_of("hello"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(string_of(reply.value()), "resp:hello");
  EXPECT_TRUE(h.client.handshaken());
  EXPECT_EQ(string_of(h.last_server_request), "hello");
}

TEST(SecureChannel, MultipleExchangesAdvanceSequences) {
  Harness h;
  for (int i = 0; i < 10; ++i) {
    auto reply = h.client.exchange(bytes_of("m" + std::to_string(i)));
    ASSERT_TRUE(reply.ok()) << i;
    EXPECT_EQ(string_of(reply.value()), "resp:m" + std::to_string(i));
  }
  EXPECT_EQ(h.server.records_rejected(), 0u);
}

TEST(SecureChannel, PlaintextNeverOnTheWire) {
  // Intercept what actually crosses the link: neither the request nor the
  // response plaintext may appear in any frame.
  SimClock clock;
  Link link(NetParams{}, clock, SimRng(2));
  SecureServerTransport server(server_key(), [](BytesView) {
    return bytes_of("TOP-SECRET-RESPONSE");
  });
  std::vector<Bytes> wire;
  link.b().set_service([&](BytesView frame) {
    wire.emplace_back(frame.begin(), frame.end());
    Bytes out = server.handle(frame);
    wire.push_back(out);
    return out;
  });
  SecureClientTransport client(link.a(), server_key().public_key(),
                               bytes_of("seed2"));
  auto reply = client.exchange(bytes_of("TOP-SECRET-REQUEST"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(string_of(reply.value()), "TOP-SECRET-RESPONSE");

  auto contains = [](const Bytes& haystack, const std::string& needle) {
    return std::search(haystack.begin(), haystack.end(), needle.begin(),
                       needle.end()) != haystack.end();
  };
  ASSERT_FALSE(wire.empty());
  for (const Bytes& frame : wire) {
    EXPECT_FALSE(contains(frame, "TOP-SECRET-REQUEST"));
    EXPECT_FALSE(contains(frame, "TOP-SECRET-RESPONSE"));
  }
}

TEST(SecureChannel, TamperedRecordRejectedWithoutStateDamage) {
  Harness h;
  ASSERT_TRUE(h.client.exchange(bytes_of("warmup")).ok());

  // Craft a tampered record by intercepting: easiest via direct server
  // call with junk.
  const Bytes junk(64, 0xaa);
  EXPECT_EQ(string_of(h.server.handle(junk)), "!rejected");
  EXPECT_EQ(h.server.records_rejected(), 1u);

  // The session continues to work: rejection did not desynchronize it.
  auto reply = h.client.exchange(bytes_of("after"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(string_of(reply.value()), "resp:after");
}

TEST(SecureChannel, ReplayedRecordRejected) {
  SimClock clock;
  Link link(NetParams{}, clock, SimRng(3));
  SecureServerTransport server(server_key(),
                               [](BytesView) { return bytes_of("ok"); });
  Bytes captured;
  link.b().set_service([&](BytesView frame) {
    captured.assign(frame.begin(), frame.end());  // the attacker records
    return server.handle(frame);
  });
  SecureClientTransport client(link.a(), server_key().public_key(),
                               bytes_of("seed3"));
  ASSERT_TRUE(client.exchange(bytes_of("original")).ok());

  // Replay the captured client record straight into the server.
  const std::uint64_t rejected_before = server.records_rejected();
  EXPECT_EQ(string_of(server.handle(captured)), "!rejected");
  EXPECT_EQ(server.records_rejected(), rejected_before + 1);
}

TEST(SecureChannel, BitFlippedCiphertextRejected) {
  SimClock clock;
  Link link(NetParams{}, clock, SimRng(6));
  SecureServerTransport server(server_key(),
                               [](BytesView) { return bytes_of("ok"); });
  bool tamper = false;
  std::uint64_t rejections_seen = 0;
  link.b().set_service([&](BytesView frame) {
    if (tamper && !frame.empty()) {
      // Flip one bit of the first ciphertext byte (record header is
      // type:u8 | seq:u64 | ct_len:u32 = 13 bytes) and deliver the
      // forgery first; the MAC must catch it without desynchronizing.
      Bytes flipped(frame.begin(), frame.end());
      flipped[13] ^= 0x01;
      EXPECT_EQ(string_of(server.handle(flipped)), "!rejected");
      rejections_seen = server.records_rejected();
    }
    return server.handle(frame);
  });
  SecureClientTransport client(link.a(), server_key().public_key(),
                               bytes_of("seed6"));
  ASSERT_TRUE(client.exchange(bytes_of("warmup")).ok());
  tamper = true;
  // The genuine record, carrying the same sequence number as the bounced
  // forgery, still goes through: rejection left the receive state intact.
  auto reply = client.exchange(bytes_of("after-forgery"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(string_of(reply.value()), "ok");
  EXPECT_GE(rejections_seen, 1u);
}

TEST(SecureChannel, TruncatedRecordRejected) {
  SimClock clock;
  Link link(NetParams{}, clock, SimRng(7));
  SecureServerTransport server(server_key(),
                               [](BytesView) { return bytes_of("ok"); });
  Bytes captured;
  link.b().set_service([&](BytesView frame) {
    captured.assign(frame.begin(), frame.end());
    return server.handle(frame);
  });
  SecureClientTransport client(link.a(), server_key().public_key(),
                               bytes_of("seed7"));
  ASSERT_TRUE(client.exchange(bytes_of("original")).ok());
  ASSERT_GT(captured.size(), 45u);  // header + ct + 32-byte MAC

  // Cut the record at various points: inside the MAC, just after the
  // header, mid-header, and down to a bare type byte.
  for (std::size_t keep :
       {captured.size() - 1, captured.size() - 33, std::size_t{13},
        std::size_t{9}, std::size_t{1}}) {
    const Bytes truncated(captured.begin(),
                          captured.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_EQ(string_of(server.handle(truncated)), "!rejected")
        << "keep=" << keep;
  }
  // Parse failures must not disturb the session either.
  auto reply = client.exchange(bytes_of("after"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(string_of(reply.value()), "ok");
}

TEST(SecureChannel, SwappedDirectionRecordRejected) {
  // A client record reflected straight back at the client carries the
  // right sequence number but the wrong direction label and keys; the
  // per-direction key separation must reject it.
  SimClock clock;
  Link link(NetParams{}, clock, SimRng(8));
  SecureServerTransport server(server_key(),
                               [](BytesView) { return bytes_of("ok"); });
  bool echo = false;
  link.b().set_service([&](BytesView frame) {
    if (echo) return Bytes(frame.begin(), frame.end());
    return server.handle(frame);
  });
  SecureClientTransport client(link.a(), server_key().public_key(),
                               bytes_of("seed8"));
  ASSERT_TRUE(client.exchange(bytes_of("warmup")).ok());
  echo = true;
  auto reply = client.exchange(bytes_of("boomerang"));
  EXPECT_FALSE(reply.ok());
  EXPECT_TRUE(client.handshaken());
}

TEST(SecureChannel, WrongServerKeyFailsHandshake) {
  SimClock clock;
  Link link(NetParams{}, clock, SimRng(4));
  SecureServerTransport server(server_key(),
                               [](BytesView) { return bytes_of("ok"); });
  link.b().set_service(
      [&](BytesView frame) { return server.handle(frame); });

  // Client trusts a DIFFERENT key (e.g., a phishing endpoint's).
  auto drbg = std::make_shared<crypto::HmacDrbg>(bytes_of("other"));
  const auto other = crypto::rsa_generate(
      768, [drbg](std::size_t n) { return drbg->generate(n); });
  SecureClientTransport client(link.a(), other.public_key(),
                               bytes_of("seed4"));
  auto reply = client.exchange(bytes_of("hello"));
  EXPECT_FALSE(reply.ok());
  EXPECT_FALSE(client.handshaken());
}

TEST(SecureChannel, RecordBeforeHandshakeRejected) {
  SecureServerTransport server(server_key(),
                               [](BytesView) { return bytes_of("ok"); });
  Bytes fake_record{0x02, 0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(string_of(server.handle(fake_record)), "!rejected");
  EXPECT_EQ(string_of(server.handle({})), "!rejected");
}

// ------------------------------ full protocol over the secure channel

TEST(SecureChannel, TrustedPathRunsOverSecureTransport) {
  sp::FleetConfig cfg;
  cfg.client_id = "tls-client";
  cfg.seed = bytes_of("tls-deploy");
  cfg.tpm_key_bits = 768;
  cfg.client_key_bits = 768;
  cfg.secure_transport = true;
  sp::Fleet world(cfg);

  devices::HumanParams hp;
  hp.typo_prob = 0.0;
  pal::HumanAgent agent(devices::HumanModel(hp, SimRng(5)),
                        "pay 10 EUR to bob");
  world.client().set_user_agent(&agent);
  ASSERT_TRUE(world.client().enroll().ok());
  auto outcome =
      world.client().submit_transaction("pay 10 EUR to bob", bytes_of("p"));
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().accepted);
  ASSERT_NE(world.secure_server(), nullptr);
  EXPECT_EQ(world.secure_server()->records_rejected(), 0u);
}

TEST(SecureChannel, PlaintextFramesBounceOffSecureSp) {
  sp::FleetConfig cfg;
  cfg.client_id = "tls-client";
  cfg.seed = bytes_of("tls-deploy-2");
  cfg.tpm_key_bits = 768;
  cfg.client_key_bits = 768;
  cfg.secure_transport = true;
  sp::Fleet world(cfg);

  // A naive attacker speaks the plaintext protocol at a secure SP.
  world.endpoint().send(core::envelope(
      core::MsgType::kEnrollBegin,
      core::EnrollBegin{"mallory"}.serialize()));
  auto reply = world.endpoint().receive();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(string_of(reply.value()), "!rejected");
  EXPECT_GT(world.secure_server()->records_rejected(), 0u);
}

}  // namespace
}  // namespace tp::net
