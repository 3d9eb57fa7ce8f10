// Experiment F6: secure-transport data plane (real time).
//
// The deployment wraps the client<->SP link in the authenticated-
// encryption channel (FleetConfig::secure_transport), so every
// protocol frame pays one AES-256-CTR pass plus one HMAC-SHA256 per
// direction. This benchmark pins down what that costs:
//
//   1. BM_SecureExchange   -- one request/response round trip through an
//                             established session vs payload size: two
//                             record seals + two opens (both directions).
//   2. BM_SecureHandshake  -- session establishment (RSA key transport +
//                             key derivation + ack record).
//   3. BM_ConfirmE2E       -- a full CONFIRM session through a
//                             one-member sp::Fleet, secure transport
//                             off vs on:
//                             the transport's end-to-end overhead on the
//                             paper's per-transaction path.
#include <benchmark/benchmark.h>

#include <memory>

#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "devices/human.h"
#include "net/secure_channel.h"
#include "pal/human_agent.h"
#include "sp/fleet.h"

using namespace tp;

namespace {

const crypto::RsaPrivateKey& server_key() {
  static const crypto::RsaPrivateKey key = [] {
    auto drbg = std::make_shared<crypto::HmacDrbg>(bytes_of("f6-server"));
    return crypto::rsa_generate(
        1024, [drbg](std::size_t n) { return drbg->generate(n); });
  }();
  return key;
}

/// Client + server transports over a zero-latency simulated link; the
/// server echoes the request so both directions carry the payload.
struct ChannelFixture {
  ChannelFixture()
      : link(net::NetParams{}, clock, SimRng(6)),
        server(server_key(),
               [](BytesView req) { return Bytes(req.begin(), req.end()); }),
        client(link.a(), server_key().public_key(), bytes_of("f6-seed")) {
    link.b().set_service(
        [this](BytesView frame) { return server.handle(frame); });
  }

  SimClock clock;
  net::Link link;
  net::SecureServerTransport server;
  net::SecureClientTransport client;
};

void BM_SecureExchange(benchmark::State& state) {
  ChannelFixture f;
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0x5a);
  if (!f.client.exchange(payload).ok()) std::abort();  // handshake
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.client.exchange(payload));
  }
  if (f.server.records_rejected() != 0) std::abort();
  // Both directions carry the payload: 2 seals + 2 opens per iteration.
  state.SetBytesProcessed(state.iterations() * state.range(0) * 2);
  state.SetLabel("2 seals + 2 opens per exchange");
}
BENCHMARK(BM_SecureExchange)->Arg(64)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_SecureHandshake(benchmark::State& state) {
  SimClock clock;
  net::Link link(net::NetParams{}, clock, SimRng(7));
  net::SecureServerTransport server(
      server_key(), [](BytesView) { return bytes_of("ok"); });
  link.b().set_service(
      [&server](BytesView frame) { return server.handle(frame); });
  for (auto _ : state) {
    net::SecureClientTransport client(link.a(), server_key().public_key(),
                                      bytes_of("f6-hs"));
    if (!client.exchange(bytes_of("ping")).ok()) std::abort();
    benchmark::DoNotOptimize(client.handshaken());
  }
  state.SetLabel("RSA-1024 key transport + key derivation");
}
BENCHMARK(BM_SecureHandshake)->Unit(benchmark::kMicrosecond);

void BM_ConfirmE2E(benchmark::State& state) {
  sp::FleetConfig cfg;
  cfg.client_id = "f6-client";
  cfg.seed = bytes_of("f6-e2e");
  cfg.tpm_key_bits = 1024;
  cfg.client_key_bits = 1024;
  cfg.secure_transport = state.range(0) != 0;
  sp::Fleet world(cfg);

  devices::HumanParams hp;
  hp.typo_prob = 0.0;
  pal::HumanAgent agent(devices::HumanModel(hp, SimRng(8)), "pay 10 EUR");
  world.client().set_user_agent(&agent);
  if (!world.client().enroll().ok()) std::abort();

  const Bytes payload(1024, 0x5a);
  for (auto _ : state) {
    auto outcome = world.client().submit_transaction("pay 10 EUR", payload);
    if (!outcome.ok() || !outcome.value().accepted) std::abort();
    benchmark::DoNotOptimize(outcome);
  }
  state.SetLabel(cfg.secure_transport ? "secure transport ON"
                                      : "secure transport OFF");
}
BENCHMARK(BM_ConfirmE2E)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
