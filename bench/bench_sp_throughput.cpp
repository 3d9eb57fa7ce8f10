// Experiment F3: service-provider verifier throughput (real time).
//
// The server-side scalability claim: accepting a trusted-path
// confirmation costs the SP one RSA verify plus table bookkeeping, so a
// single core sustains thousands of confirmations per second -- the
// trusted path moves no bottleneck to the server.
//
// The measurements:
//   1. BM_ConfirmationVerify      -- the crypto kernel alone (statement
//                                    rebuild + RSA verify), items/s;
//   2. BM_EcdsaConfirmationVerify -- the same kernel with the TPM 2.0
//                                    backend's P-256 signature (F9: the
//                                    per-confirmation crypto drops by
//                                    the RSA-2048/ECDSA verify ratio);
//   3. BM_SpAcceptPath            -- full handle_frame on a corpus of
//                                    GENUINE TxConfirm frames,
//                                    pre-generated through real PAL
//                                    sessions outside the timing loop,
//                                    for a tpm12, tpm2 and mixed 50/50
//                                    client population;
//   4. BM_SpRejectPath            -- full bookkeeping + failed verify
//                                    (the attack-flood case), scaling in
//                                    the number of enrolled clients.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/trusted_path_pal.h"
#include "crypto/ecdsa.h"
#include "crypto/rsa.h"
#include "devices/human.h"
#include "pal/session.h"
#include "sp/service_provider.h"
#include "sp_frames.h"
#include "tpm/privacy_ca.h"

using namespace tp;
using namespace tp::core;

namespace {

/// Types whatever code the PAL displays (a perfectly obedient user).
class ScriptedCodeAgent : public pal::UserAgent {
 public:
  std::optional<SimDuration> on_prompt(const devices::DisplayContent& screen,
                                       devices::Keyboard& kb) override {
    kb.press_line(devices::KeySource::kPhysical,
                  screen.find_field(devices::kFieldCode));
    return SimDuration::seconds(3);
  }
};

/// One SP serving a small population of enrolled platforms -- one per
/// entry of `backends` -- with helpers to mint genuine confirmations
/// through real PAL sessions. {kTpm12} reproduces the seed fixture;
/// {kTpm12, kTpm2} is the mid-migration 50/50 fleet.
struct Fixture {
  explicit Fixture(std::vector<tpm::QuoteFormat> backends)
      : ca(bytes_of("f3-ca"), 1024), sp(make_config(ca)) {
    for (std::size_t m = 0; m < backends.size(); ++m) {
      Member member;
      member.id = "client-" + std::to_string(m);
      drtm::PlatformConfig pc;
      pc.platform_id = member.id;
      pc.seed = bytes_of("f3-platform-" + std::to_string(m));
      pc.tpm_key_bits = 1024;
      pc.backend = backends[m];
      member.platform = std::make_unique<drtm::Platform>(pc);
      member.driver =
          std::make_unique<pal::SessionDriver>(*member.platform);
      member.driver->set_user_agent(&agent);

      const EnrollChallenge challenge =
          test::begin_enrollment(sp, EnrollBegin{member.id});
      PalEnrollInput in;
      in.nonce = challenge.nonce;
      in.key_bits = 1024;
      auto session = member.driver->run(make_trusted_path_pal(), in.marshal());
      auto out = PalEnrollOutput::unmarshal(session.value().output);
      member.sealed_key = out.value().sealed_key;
      EnrollComplete complete;
      complete.client_id = member.id;
      complete.format = backends[m];
      complete.confirmation_pubkey = out.value().pubkey;
      complete.quote = out.value().quote;
      if (backends[m] == tpm::QuoteFormat::kTpm2) {
        complete.aik_certificate =
            ca.certify_key(member.id, tpm::AttestationKey::of(
                                          member.platform->tpm2().ak_public()))
                .serialize();
      } else {
        complete.aik_certificate =
            ca.certify(member.id, member.platform->tpm().aik_public())
                .serialize();
      }
      if (!test::complete_enrollment(sp, complete).accepted) std::abort();
      members.push_back(std::move(member));
    }
  }

  static sp::SpConfig make_config(const tpm::PrivacyCa& ca) {
    sp::SpConfig cfg;
    cfg.golden_pcr17 = golden_pcr17();
    cfg.ca_public = ca.public_key();
    cfg.accepted_policies = {
        attestation_policy(drtm::DrtmTechnology::kAmdSkinit),
        attestation_policy(drtm::DrtmTechnology::kAmdSkinit, {},
                           tpm::QuoteFormat::kTpm2),
    };
    return cfg;
  }

  /// Mints one genuine (pending-at-SP, signed) TxConfirm frame; members
  /// take turns, so a two-member fixture interleaves 1.2 and 2.0
  /// signatures 50/50.
  Bytes mint(std::uint64_t i) {
    Member& member = members[i % members.size()];
    TxSubmit submit{member.id, "pay " + std::to_string(i), Bytes(64, 1)};
    const TxChallenge challenge = test::begin_transaction(sp, submit);
    PalConfirmInput in;
    in.tx_summary = submit.summary;
    in.tx_digest = submit.digest();
    in.nonce = challenge.nonce;
    in.sealed_key = member.sealed_key;
    auto session = member.driver->run(make_trusted_path_pal(), in.marshal());
    auto out = PalConfirmOutput::unmarshal(session.value().output);
    TxConfirm confirm;
    confirm.client_id = member.id;
    confirm.tx_id = challenge.tx_id;
    confirm.verdict = out.value().verdict;
    confirm.signature = out.value().signature;
    return envelope(MsgType::kTxConfirm, confirm.serialize());
  }

  struct Member {
    std::string id;
    std::unique_ptr<drtm::Platform> platform;
    std::unique_ptr<pal::SessionDriver> driver;
    Bytes sealed_key;
  };

  tpm::PrivacyCa ca;
  sp::ServiceProvider sp;
  ScriptedCodeAgent agent;
  std::vector<Member> members;
};

}  // namespace

static void BM_ConfirmationVerify(benchmark::State& state) {
  const std::size_t key_bits = static_cast<std::size_t>(state.range(0));
  auto drbg = std::make_shared<crypto::HmacDrbg>(bytes_of("f3v"));
  auto rand = [drbg](std::size_t len) { return drbg->generate(len); };
  const crypto::RsaPrivateKey key = crypto::rsa_generate(key_bits, rand);

  TxSubmit submit{"c", "pay 10", Bytes(64, 1)};
  const Bytes nonce = rand(20);
  const Bytes statement =
      confirmation_statement(submit.digest(), nonce, Verdict::kConfirmed);
  const Bytes sig = crypto::rsa_sign(key, crypto::HashAlg::kSha256, statement);
  const crypto::RsaPublicKey pk = key.public_key();

  for (auto _ : state) {
    const Bytes st =
        confirmation_statement(submit.digest(), nonce, Verdict::kConfirmed);
    benchmark::DoNotOptimize(
        crypto::rsa_verify(pk, crypto::HashAlg::kSha256, st, sig));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConfirmationVerify)->Arg(1024)->Arg(2048);

static void BM_ConfirmationVerifyCtx(benchmark::State& state) {
  // The fast path the SP actually runs since the enrollment-time
  // RsaVerifyContext cache: same statement rebuild + verify as
  // BM_ConfirmationVerify, minus the per-call Montgomery setup.
  const std::size_t key_bits = static_cast<std::size_t>(state.range(0));
  auto drbg = std::make_shared<crypto::HmacDrbg>(bytes_of("f3v"));
  auto rand = [drbg](std::size_t len) { return drbg->generate(len); };
  const crypto::RsaPrivateKey key = crypto::rsa_generate(key_bits, rand);

  TxSubmit submit{"c", "pay 10", Bytes(64, 1)};
  const Bytes nonce = rand(20);
  const Bytes statement =
      confirmation_statement(submit.digest(), nonce, Verdict::kConfirmed);
  const Bytes sig = crypto::rsa_sign(key, crypto::HashAlg::kSha256, statement);
  const crypto::RsaVerifyContext ctx(key.public_key());

  for (auto _ : state) {
    const Bytes st =
        confirmation_statement(submit.digest(), nonce, Verdict::kConfirmed);
    benchmark::DoNotOptimize(ctx.verify(crypto::HashAlg::kSha256, st, sig));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("cached per-key verify ctx");
}
BENCHMARK(BM_ConfirmationVerifyCtx)->Arg(1024)->Arg(2048);

static void BM_EcdsaConfirmationVerify(benchmark::State& state) {
  // The TPM 2.0 backend's crypto kernel: same statement rebuild, P-256
  // signature through the one-shot ecdsa_verify (no per-key table, as
  // in the enrollment's quote check). Compare against
  // BM_ConfirmationVerify/2048 for F9.
  auto drbg = std::make_shared<crypto::HmacDrbg>(bytes_of("f3e"));
  auto rand = [drbg](std::size_t len) { return drbg->generate(len); };
  const crypto::EcdsaPrivateKey key = crypto::ecdsa_generate(rand);

  TxSubmit submit{"c", "pay 10", Bytes(64, 1)};
  const Bytes nonce = rand(20);
  const Bytes statement =
      confirmation_statement(submit.digest(), nonce, Verdict::kConfirmed);
  const Bytes sig = crypto::ecdsa_sign(key, statement);
  const crypto::EcdsaPublicKey pk = key.public_key();

  for (auto _ : state) {
    const Bytes st =
        confirmation_statement(submit.digest(), nonce, Verdict::kConfirmed);
    benchmark::DoNotOptimize(crypto::ecdsa_verify(pk, st, sig));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("one-shot, no per-key table");
}
BENCHMARK(BM_EcdsaConfirmationVerify);

static void BM_EcdsaConfirmationVerifyCtx(benchmark::State& state) {
  // The fast path the SP runs for an enrolled 2.0 client: the
  // EcdsaVerifyContext caches the public point's window table, so the
  // second scalar multiplication is table lookups like the first.
  auto drbg = std::make_shared<crypto::HmacDrbg>(bytes_of("f3e"));
  auto rand = [drbg](std::size_t len) { return drbg->generate(len); };
  const crypto::EcdsaPrivateKey key = crypto::ecdsa_generate(rand);

  TxSubmit submit{"c", "pay 10", Bytes(64, 1)};
  const Bytes nonce = rand(20);
  const Bytes statement =
      confirmation_statement(submit.digest(), nonce, Verdict::kConfirmed);
  const Bytes sig = crypto::ecdsa_sign(key, statement);
  const crypto::EcdsaVerifyContext ctx(key.public_key());

  for (auto _ : state) {
    const Bytes st =
        confirmation_statement(submit.digest(), nonce, Verdict::kConfirmed);
    benchmark::DoNotOptimize(ctx.verify(st, sig));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("cached per-key verify ctx");
}
BENCHMARK(BM_EcdsaConfirmationVerifyCtx);

static void BM_SpAcceptPath(benchmark::State& state) {
  // Arg 0: all-1.2 population (the seed bench). Arg 1: all-2.0.
  // Arg 2: mixed 50/50 -- one SP verifying RSA and ECDSA side by side.
  static Fixture tpm12_fixture({tpm::QuoteFormat::kTpm12});
  static Fixture tpm2_fixture({tpm::QuoteFormat::kTpm2});
  static Fixture mixed_fixture(
      {tpm::QuoteFormat::kTpm12, tpm::QuoteFormat::kTpm2});
  Fixture* fixtures[] = {&tpm12_fixture, &tpm2_fixture, &mixed_fixture};
  const char* labels[] = {"tpm12 accepts", "tpm2 accepts",
                          "mixed 50/50 accepts"};
  Fixture& fixture = *fixtures[state.range(0)];
  constexpr int kBatch = 64;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Bytes> corpus;
    corpus.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      corpus.push_back(fixture.mint(state.iterations() * kBatch +
                                    static_cast<std::uint64_t>(i)));
    }
    state.ResumeTiming();
    for (const Bytes& frame : corpus) {
      benchmark::DoNotOptimize(fixture.sp.handle_frame(frame));
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.SetLabel(labels[state.range(0)]);
}
BENCHMARK(BM_SpAcceptPath)->Arg(0)->Arg(1)->Arg(2)->Unit(
    benchmark::kMillisecond);

static void BM_SpRejectPath(benchmark::State& state) {
  static Fixture fixture({tpm::QuoteFormat::kTpm12});
  const Bytes junk_sig(128, 0x5a);
  std::uint64_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    TxSubmit submit{"client-0", "forged " + std::to_string(i++),
                    Bytes(64, 1)};
    const TxChallenge challenge = test::begin_transaction(fixture.sp, submit);
    TxConfirm confirm;
    confirm.client_id = "client-0";
    confirm.tx_id = challenge.tx_id;
    confirm.verdict = Verdict::kConfirmed;
    confirm.signature = junk_sig;
    const Bytes frame = envelope(MsgType::kTxConfirm, confirm.serialize());
    state.ResumeTiming();

    benchmark::DoNotOptimize(fixture.sp.handle_frame(frame));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("forged confirmations rejected");
}
BENCHMARK(BM_SpRejectPath)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
