// Chaos suite (`ctest -L chaos`): deterministic fault injection across
// the client <-> SP protocol, asserting the exactly-once contract.
//
// Invariants under fault rates up to ~30% per direction:
//   - every submission resolves: exactly-once accept or a typed reject;
//   - the client's accept count equals the SP's (no double-execution,
//     no phantom accepts);
//   - session-table memory stays flat (terminal holds are bounded);
//   - the same seed replays the identical fault trace and outcomes.
//
// The probabilistic suites honour TP_CHAOS_SEED (CI randomizes it; the
// seed is always printed so a failure is replayable). The full-stack
// suites pin their seeds: their stronger assertion ("every transaction
// accepted") depends on the sampled fault sequence, not just on the
// invariants.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/messages.h"
#include "core/trusted_path_pal.h"
#include "pal/human_agent.h"
#include "sp/deployment.h"
#include "sp/service_provider.h"
#include "sp_frames.h"
#include "tpm/tpm2_device.h"
#include "tpm/tpm_device.h"

namespace tp {
namespace {

using core::MsgType;
using core::TxChallenge;
using core::TxResult;
using core::Verdict;
using test::confirm_frame;
using test::submit_frame;

std::uint64_t chaos_seed() {
  static const std::uint64_t seed = [] {
    const char* env = std::getenv("TP_CHAOS_SEED");
    const std::uint64_t s =
        env != nullptr ? std::strtoull(env, nullptr, 10) : 0xc7a05ull;
    std::cout << "[chaos] seed = " << s << " (set TP_CHAOS_SEED=" << s
              << " to reproduce)" << std::endl;
    return s;
  }();
  return seed;
}

// ------------------------------------------------------------ frame level

sp::SpConfig baseline_sp_config(const SimClock* clock) {
  sp::SpConfig cfg;
  cfg.require_trusted_path = false;  // raw-frame tests skip enrollment
  cfg.clock = clock;
  return cfg;
}

TEST(ChaosIdempotency, RetransmittedFramesReplayByteIdentically) {
  sp::ServiceProvider sp(baseline_sp_config(nullptr));

  // A retransmitted TxSubmit replays the exact challenge bytes and does
  // not open a second session.
  const Bytes submit = submit_frame("alice", "pay 5");
  const Bytes challenge1 = sp.handle_frame(submit);
  const Bytes challenge2 = sp.handle_frame(submit);
  EXPECT_EQ(challenge1, challenge2);
  EXPECT_EQ(sp.replayed_challenges(), 1u);
  EXPECT_EQ(sp.session_table_occupancy(), 1u);

  auto opened = core::open_envelope(challenge1);
  ASSERT_TRUE(opened.ok());
  auto challenge = TxChallenge::deserialize(opened.value().second);
  ASSERT_TRUE(challenge.ok());

  // A retransmitted TxConfirm replays the settled result; the accept is
  // counted exactly once.
  const Bytes confirm =
      confirm_frame("alice", challenge.value().tx_id, Verdict::kConfirmed);
  const Bytes result1 = sp.handle_frame(confirm);
  const Bytes result2 = sp.handle_frame(confirm);
  EXPECT_EQ(result1, result2);
  EXPECT_EQ(sp.replayed_results(), 1u);
  EXPECT_EQ(sp.stats().tx_accepted, 1u);

  auto result = TxResult::deserialize(core::open_envelope(result1)
                                          .value()
                                          .second);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().accepted);
}

TEST(ChaosIdempotency, DifferingRetransmissionGetsTypedReject) {
  sp::ServiceProvider sp(baseline_sp_config(nullptr));

  const Bytes challenge_frame = sp.handle_frame(submit_frame("bob", "pay 9"));
  auto challenge = TxChallenge::deserialize(
      core::open_envelope(challenge_frame).value().second);
  ASSERT_TRUE(challenge.ok());
  const std::uint64_t tx_id = challenge.value().tx_id;

  const Bytes result1 =
      sp.handle_frame(confirm_frame("bob", tx_id, Verdict::kConfirmed));
  ASSERT_TRUE(TxResult::deserialize(core::open_envelope(result1).value().second)
                  .value()
                  .accepted);

  // Same tx id, different bytes: not a retransmission -- the settled
  // outcome must not be re-litigated, and the reject is typed.
  const Bytes result2 =
      sp.handle_frame(confirm_frame("bob", tx_id, Verdict::kRejected));
  auto reject =
      TxResult::deserialize(core::open_envelope(result2).value().second);
  ASSERT_TRUE(reject.ok());
  EXPECT_FALSE(reject.value().accepted);
  EXPECT_EQ(reject.value().code, proto::RejectCode::kRetryMismatch);
  EXPECT_EQ(sp.stats().tx_accepted, 1u);
  EXPECT_EQ(sp.stats().rejects(proto::RejectCode::kRetryMismatch), 1u);
}

// --------------------------------------------------------- protocol level

struct ChaosOutcome {
  std::uint64_t client_accepts = 0;
  std::uint64_t client_rejects = 0;
  std::uint64_t client_mismatch_rejects = 0;  // typed kRetryMismatch
  std::uint64_t client_untyped_rejects = 0;   // rejects with code == kNone
  std::uint64_t unresolved = 0;
  std::uint64_t sp_accepts = 0;
  std::uint64_t sp_rejects = 0;
  std::uint64_t replayed = 0;
  std::uint64_t injected = 0;
  std::uint64_t trace = 0;

  bool operator==(const ChaosOutcome&) const = default;
};

// Drives `num_txs` transactions through raw frames over a heavily faulty
// link, with a deadline-bounded retransmit loop standing in for the
// client. Each transaction uses its own client id so a stale frame from
// an earlier transaction can never be silently accepted for a later one:
// a TxChallenge carries no client binding, so a delay-spiked duplicate
// of an earlier submit can re-open that client's session and feed its
// challenge to the wrong transaction -- the confirm then draws a typed
// kClientMismatch, which the driver treats as "stale challenge, fetch
// mine again" (the submit retransmission is idempotent, so re-fetching
// replays the right challenge).
//
// `corrupt` adds byte-flip faults on the uplink. Corruption on this
// unauthenticated transport is special: a flipped byte in a
// retransmission makes it no longer byte-identical to the settled
// original, so the SP answers kRetryMismatch instead of replaying -- the
// typed-reject arm of the contract, exercised by its own test below.
// The downlink is never corrupted here: results carry no integrity
// check, so a flipped accept bit would silently alter what the client
// records -- defending that is the secure transport's job (covered by
// the full-stack suite).
ChaosOutcome run_protocol_chaos(std::uint64_t seed, int num_txs,
                                bool corrupt) {
  SimClock clock;
  net::NetParams params;
  params.latency_mean_ms = 5.0;
  params.latency_jitter_ms = 1.0;
  params.fault.seed = seed;
  // ~26% aggregate fault rate toward the SP (30% with corruption on)
  // and ~26% back.
  params.fault.to_sp.drop_prob = 0.12;
  params.fault.to_sp.dup_prob = 0.08;
  params.fault.to_sp.reorder_prob = 0.04;
  params.fault.to_sp.corrupt_prob = corrupt ? 0.04 : 0.0;
  params.fault.to_sp.delay_spike_prob = 0.02;
  params.fault.to_sp.delay_spike_ms = 40.0;
  params.fault.to_client.drop_prob = 0.12;
  params.fault.to_client.dup_prob = 0.08;
  params.fault.to_client.reorder_prob = 0.04;
  params.fault.to_client.delay_spike_prob = 0.02;
  params.fault.to_client.delay_spike_ms = 40.0;

  sp::ServiceProvider sp(baseline_sp_config(&clock));
  net::Link link(params, clock, SimRng(seed ^ 0x6c696e6bull));
  link.b().set_service([&sp](BytesView f) { return sp.handle_frame(f); });

  const std::size_t session_mem = sp.session_table_memory_bytes();
  const std::size_t dedup_mem = sp.submit_dedup_memory_bytes();

  // Retransmit until a response of the wanted shape arrives; anything
  // else in the queue (duplicates, stale challenges, rejects for
  // corrupted copies) is drained and discarded.
  const auto exchange = [&](const Bytes& frame, MsgType want,
                            std::uint64_t want_tx_id) -> Result<Bytes> {
    for (int attempt = 0; attempt < 60; ++attempt) {
      link.a().send(frame);
      for (;;) {
        auto got = link.a().receive();
        if (!got.ok()) break;  // dropped or pending: back off, retransmit
        auto opened = core::open_envelope(got.value());
        if (!opened.ok()) continue;
        if (opened.value().first != want) continue;
        if (want == MsgType::kTxResult) {
          auto result = TxResult::deserialize(opened.value().second);
          if (!result.ok() || result.value().tx_id != want_tx_id) continue;
        }
        return Bytes(opened.value().second);
      }
      clock.charge("chaos:retry-backoff", SimDuration::millis(20));
    }
    return Error{Err::kTimeout, "chaos: retry budget exhausted"};
  };

  ChaosOutcome out;
  for (int i = 0; i < num_txs; ++i) {
    const std::string client = "chaos-" + std::to_string(i);
    const Bytes submit = submit_frame(client, "tx " + std::to_string(i));
    bool resolved = false;
    for (int round = 0; round < 5 && !resolved; ++round) {
      auto challenge_payload = exchange(submit, MsgType::kTxChallenge, 0);
      if (!challenge_payload.ok()) break;
      auto challenge = TxChallenge::deserialize(challenge_payload.value());
      if (!challenge.ok()) break;
      auto result_payload =
          exchange(confirm_frame(client, challenge.value().tx_id,
                                 Verdict::kConfirmed),
                   MsgType::kTxResult, challenge.value().tx_id);
      if (!result_payload.ok()) break;
      const auto result = TxResult::deserialize(result_payload.value());
      if (!result.value().accepted &&
          (result.value().code == proto::RejectCode::kClientMismatch ||
           result.value().code == proto::RejectCode::kUnknownTx)) {
        // The challenge we consumed was not ours (stale duplicate from an
        // earlier transaction). The mismatch is a typed reject of THAT
        // session, not a verdict on this submission: re-fetch our own
        // challenge and settle for real.
        continue;
      }
      resolved = true;
      if (result.value().accepted) {
        ++out.client_accepts;
      } else {
        ++out.client_rejects;
        if (result.value().code == proto::RejectCode::kRetryMismatch) {
          ++out.client_mismatch_rejects;
        }
        if (result.value().code == proto::RejectCode::kNone) {
          ++out.client_untyped_rejects;
        }
      }
    }
    if (!resolved) ++out.unresolved;
  }

  // The boundedness half of the contract: a retry storm must not grow
  // the SP's session state.
  EXPECT_EQ(sp.session_table_memory_bytes(), session_mem);
  EXPECT_EQ(sp.submit_dedup_memory_bytes(), dedup_mem);
  EXPECT_LE(sp.session_table_occupancy(),
            sp::SpConfig{}.tx_session_capacity + 1);

  out.sp_accepts = sp.stats().tx_accepted;
  out.sp_rejects = sp.stats().tx_rejected;
  out.replayed = sp.replayed_challenges() + sp.replayed_results();
  out.injected = link.faults()->injected_total();
  out.trace = link.faults()->trace_fingerprint();
  return out;
}

TEST(ChaosProtocol, TenThousandTransactionsExactlyOnceUnderHeavyFaults) {
  const ChaosOutcome out =
      run_protocol_chaos(chaos_seed(), 10000, /*corrupt=*/false);

  // Every submission resolved, and nothing executed twice or invented:
  // accepts observed by the client == accepts executed by the SP. With
  // faults limited to drop/dup/reorder/delay (bytes never change in
  // transit), exactly-once is exact: all 10k transactions land.
  EXPECT_EQ(out.unresolved, 0u);
  EXPECT_EQ(out.client_accepts, out.sp_accepts);
  EXPECT_EQ(out.client_accepts, 10000u);
  EXPECT_EQ(out.client_rejects, 0u);

  // The run actually exercised the machinery.
  EXPECT_GT(out.injected, 1000u);
  EXPECT_GT(out.replayed, 100u);
}

TEST(ChaosProtocol, CorruptionYieldsTypedRejectsNeverDoubleExecution) {
  const ChaosOutcome out =
      run_protocol_chaos(chaos_seed() ^ 0x636f72ull, 10000, /*corrupt=*/true);

  // A flipped byte can cost a transaction (the SP may settle the mangled
  // bytes, or refuse a no-longer-identical retransmission with
  // kRetryMismatch), but every submission still resolves to an accept or
  // a TYPED reject, and nothing ever executes twice: SP accepts are
  // bounded by the number of submissions, and the only accepts the
  // client misses are those whose retransmission was mangled after the
  // SP had settled (each such miss shows up as a kRetryMismatch).
  EXPECT_EQ(out.unresolved, 0u);
  EXPECT_EQ(out.client_accepts + out.client_rejects, 10000u);
  EXPECT_EQ(out.client_untyped_rejects, 0u);
  EXPECT_LE(out.sp_accepts, 10000u);
  EXPECT_LE(out.client_accepts, out.sp_accepts);
  EXPECT_LE(out.sp_accepts - out.client_accepts, out.client_mismatch_rejects);
  // Heavy corruption, but the vast majority still lands first-class.
  EXPECT_GT(out.client_accepts, 9000u);
}

TEST(ChaosProtocol, SameSeedReplaysIdenticalTraceAndOutcomes) {
  const std::uint64_t seed = chaos_seed() ^ 0x7265706cull;
  const ChaosOutcome first = run_protocol_chaos(seed, 2000, true);
  const ChaosOutcome second = run_protocol_chaos(seed, 2000, true);
  EXPECT_EQ(first, second);
  EXPECT_GT(first.injected, 0u);

  // A different seed draws a different fault sequence.
  const ChaosOutcome other = run_protocol_chaos(seed + 1, 2000, true);
  EXPECT_NE(other.trace, first.trace);
}

// ------------------------------------------------------------- full stack

devices::HumanParams perfect_human() {
  devices::HumanParams p;
  p.typo_prob = 0.0;
  p.attention = 1.0;
  return p;
}

TEST(ChaosFullStack, RetryingClientConfirmsEverythingOverFaultyLink) {
  obs::Registry registry;
  sp::DeploymentConfig cfg;
  cfg.client_id = "chaos-alice";
  cfg.seed = bytes_of("chaos-full-stack");
  cfg.tpm_key_bits = 768;
  cfg.client_key_bits = 768;
  cfg.metrics = &registry;
  cfg.net.metrics = &registry;
  // Pinned seed: the all-accepted assertion depends on the sampled fault
  // sequence (see file header).
  cfg.net.fault.seed = 0x66756c6cull;
  cfg.net.fault.to_sp.drop_prob = 0.12;
  cfg.net.fault.to_sp.dup_prob = 0.06;
  cfg.net.fault.to_sp.reorder_prob = 0.04;
  cfg.net.fault.to_client.drop_prob = 0.12;
  cfg.net.fault.to_client.dup_prob = 0.06;
  cfg.net.fault.to_client.reorder_prob = 0.04;
  // One full partition mid-run; the backoff schedule must out-wait it.
  cfg.net.fault.partitions.push_back(net::PartitionWindow{
      SimTime{SimDuration::seconds(5).ns},
      SimTime{SimDuration::seconds(5.6).ns}});
  cfg.client_retry.max_attempts = 12;
  cfg.client_retry.backoff_base = SimDuration::millis(50);
  // The client machine's TPM glitches too; the driver-level retry budget
  // absorbs it.
  cfg.tpm_faults.transient_prob = 0.05;
  cfg.tpm_faults.max_retries = 10;

  sp::Deployment world(cfg);
  pal::HumanAgent agent(devices::HumanModel(perfect_human(), SimRng(11)), "");
  world.client().set_user_agent(&agent);

  ASSERT_TRUE(world.client().enroll().ok());
  const int kTxs = 20;
  for (int i = 0; i < kTxs; ++i) {
    const std::string summary = "pay " + std::to_string(i) + " EUR";
    agent.set_intended_summary(summary);
    auto outcome =
        world.client().submit_transaction(summary, bytes_of("payload"));
    ASSERT_TRUE(outcome.ok()) << "tx " << i << ": "
                              << outcome.error().message;
    EXPECT_TRUE(outcome.value().accepted) << "tx " << i;
  }
  EXPECT_EQ(world.sp().stats().tx_accepted, static_cast<std::uint64_t>(kTxs));
  EXPECT_GT(world.client().retries(), 0u);
  EXPECT_EQ(world.client().exchange_give_ups(), 0u);
  EXPECT_GT(world.link().faults()->injected_total(), 0u);
  EXPECT_GT(world.platform().tpm().transient_faults(), 0u);
  EXPECT_EQ(world.platform().tpm().fault_exhaustions(), 0u);

  // The acceptance criterion "retry metrics visible in the obs registry":
  // client retries, injected faults and SP replay counters all surface in
  // the shared registry's JSON export.
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("client.retries"), std::string::npos);
  EXPECT_NE(json.find("faults.injected.drop"), std::string::npos);
  EXPECT_NE(json.find("sp.retry.replayed_challenge"), std::string::npos);
}

TEST(ChaosFullStack, SecureTransportSurvivesCorruptionBothDirections) {
  sp::DeploymentConfig cfg;
  cfg.client_id = "chaos-tls";
  cfg.seed = bytes_of("chaos-secure");
  cfg.tpm_key_bits = 768;
  cfg.client_key_bits = 768;
  cfg.secure_transport = true;
  // With authenticated records, corruption is safe in BOTH directions: a
  // flipped byte fails the MAC, the record is discarded, and the
  // retransmission (a fresh sequence number; the receive window is
  // forward-jump tolerant) replays the SP's cached response.
  cfg.net.fault.seed = 0x746c73ull;  // pinned (see file header)
  cfg.net.fault.to_sp.drop_prob = 0.08;
  cfg.net.fault.to_sp.dup_prob = 0.05;
  cfg.net.fault.to_sp.corrupt_prob = 0.08;
  cfg.net.fault.to_client.drop_prob = 0.08;
  cfg.net.fault.to_client.dup_prob = 0.05;
  cfg.net.fault.to_client.corrupt_prob = 0.08;
  cfg.client_retry.max_attempts = 12;
  cfg.client_retry.backoff_base = SimDuration::millis(50);

  sp::Deployment world(cfg);
  pal::HumanAgent agent(devices::HumanModel(perfect_human(), SimRng(12)), "");
  world.client().set_user_agent(&agent);

  ASSERT_TRUE(world.client().enroll().ok());
  const int kTxs = 12;
  for (int i = 0; i < kTxs; ++i) {
    const std::string summary = "wire " + std::to_string(i);
    agent.set_intended_summary(summary);
    auto outcome =
        world.client().submit_transaction(summary, bytes_of("body"));
    ASSERT_TRUE(outcome.ok()) << "tx " << i << ": "
                              << outcome.error().message;
    EXPECT_TRUE(outcome.value().accepted) << "tx " << i;
  }
  EXPECT_EQ(world.sp().stats().tx_accepted, static_cast<std::uint64_t>(kTxs));
  EXPECT_GT(world.client().retries(), 0u);
  EXPECT_GT(world.link().faults()->injected(net::FaultKind::kCorrupt), 0u);
}

// -------------------------------------------------------------------- TPM

TEST(ChaosTpm, TransientFaultsRecoverWithinRetryBudget) {
  SimClock clock;
  tpm::TpmDevice::Options options;
  options.faults.transient_prob = 0.25;
  options.faults.max_retries = 10;  // exhaustion odds ~0.25^11 per command
  options.faults.seed = chaos_seed();
  tpm::TpmDevice tpm(tpm::default_chip(), bytes_of("chaos-tpm"), clock,
                     options);

  SimClock baseline_clock;
  tpm::TpmDevice baseline(tpm::default_chip(), bytes_of("chaos-tpm"),
                          baseline_clock, tpm::TpmDevice::Options{});

  const auto selection = tpm::PcrSelection::of({16});
  for (int i = 0; i < 100; ++i) {
    auto blob = tpm.seal(tpm::Locality::kOs, selection, 0xff,
                         bytes_of("secret"));
    ASSERT_TRUE(blob.ok()) << "seal " << i << ": " << blob.error().message;
    auto out = tpm.unseal(tpm::Locality::kOs, blob.value());
    ASSERT_TRUE(out.ok()) << "unseal " << i << ": " << out.error().message;
    ASSERT_TRUE(
        baseline.seal(tpm::Locality::kOs, selection, 0xff,
                      bytes_of("secret"))
            .ok());
  }
  EXPECT_GT(tpm.transient_faults(), 0u);
  EXPECT_EQ(tpm.fault_retries(), tpm.transient_faults());
  EXPECT_EQ(tpm.fault_exhaustions(), 0u);
  // Recovery is not free: every retry re-charges the command plus the
  // backoff, so the faulty device's virtual clock runs ahead.
  EXPECT_GT(clock.now().ns, baseline_clock.now().ns);
}

TEST(ChaosTpm, Tpm2TransientFaultsRecoverWithinRetryBudget) {
  // The 2.0 device runs the identical driver-style retry loop; quotes and
  // policy-bound seals recover from transient chip faults the same way
  // the 1.2 commands do.
  SimClock clock;
  tpm::Tpm2Device::Options options;
  options.faults.transient_prob = 0.25;
  options.faults.max_retries = 10;
  options.faults.seed = chaos_seed() ^ 0x74326dull;
  tpm::Tpm2Device tpm(tpm::default_chip(), bytes_of("chaos-tpm2"), clock,
                      options);

  const auto selection = tpm::PcrSelection::of({16});
  for (int i = 0; i < 100; ++i) {
    auto blob = tpm.seal(tpm::Locality::kOs, selection, 0xff,
                         bytes_of("secret"));
    ASSERT_TRUE(blob.ok()) << "seal " << i << ": " << blob.error().message;
    auto out = tpm.unseal(tpm::Locality::kOs, blob.value());
    ASSERT_TRUE(out.ok()) << "unseal " << i << ": " << out.error().message;
    auto quote = tpm.quote(bytes_of("nonce"), selection);
    ASSERT_TRUE(quote.ok()) << "quote " << i << ": " << quote.error().message;
    ASSERT_TRUE(
        tpm::verify_tpm2_quote(tpm.ak_public(), quote.value(),
                               bytes_of("nonce"))
            .ok());
  }
  EXPECT_GT(tpm.transient_faults(), 0u);
  EXPECT_EQ(tpm.fault_retries(), tpm.transient_faults());
  EXPECT_EQ(tpm.fault_exhaustions(), 0u);
}

TEST(ChaosFullStack, Tpm2BackendConfirmsEverythingOverFaultyLink) {
  // The full trusted path on the 2.0 backend under the same fault plan
  // shape as the 1.2 run: faulty link, glitching TPM2 chip, retrying
  // client -- exactly-once must hold regardless of the quote format.
  sp::DeploymentConfig cfg;
  cfg.client_id = "chaos-tpm2";
  cfg.seed = bytes_of("chaos-full-stack-tpm2");
  cfg.tpm_key_bits = 1024;
  cfg.backend = tpm::QuoteFormat::kTpm2;
  // Pinned seed: the all-accepted assertion depends on the sampled fault
  // sequence (see file header).
  cfg.net.fault.seed = 0x7432666cull;
  cfg.net.fault.to_sp.drop_prob = 0.12;
  cfg.net.fault.to_sp.dup_prob = 0.06;
  cfg.net.fault.to_sp.reorder_prob = 0.04;
  cfg.net.fault.to_client.drop_prob = 0.12;
  cfg.net.fault.to_client.dup_prob = 0.06;
  cfg.net.fault.to_client.reorder_prob = 0.04;
  cfg.client_retry.max_attempts = 12;
  cfg.client_retry.backoff_base = SimDuration::millis(50);
  cfg.tpm_faults.transient_prob = 0.05;
  cfg.tpm_faults.max_retries = 10;

  sp::Deployment world(cfg);
  pal::HumanAgent agent(devices::HumanModel(perfect_human(), SimRng(13)), "");
  world.client().set_user_agent(&agent);

  ASSERT_TRUE(world.client().enroll().ok());
  const int kTxs = 20;
  for (int i = 0; i < kTxs; ++i) {
    const std::string summary = "pay " + std::to_string(i) + " EUR";
    agent.set_intended_summary(summary);
    auto outcome =
        world.client().submit_transaction(summary, bytes_of("payload"));
    ASSERT_TRUE(outcome.ok()) << "tx " << i << ": "
                              << outcome.error().message;
    EXPECT_TRUE(outcome.value().accepted) << "tx " << i;
  }
  const auto stats = world.sp().stats();
  EXPECT_EQ(stats.tx_accepted, static_cast<std::uint64_t>(kTxs));
  // Every accept was attributed to the 2.0 backend slice.
  EXPECT_EQ(stats.tx_accepted_format(tpm::QuoteFormat::kTpm2),
            static_cast<std::uint64_t>(kTxs));
  EXPECT_EQ(stats.enrolled_format(tpm::QuoteFormat::kTpm2), 1u);
  EXPECT_GT(world.client().retries(), 0u);
  EXPECT_GT(world.platform().tpm2().transient_faults(), 0u);
  EXPECT_EQ(world.platform().tpm2().fault_exhaustions(), 0u);
}

TEST(ChaosTpm, PersistentFaultExhaustsRetriesWithTypedError) {
  SimClock clock;
  tpm::TpmDevice::Options options;
  options.faults.transient_prob = 1.0;  // the chip never comes back
  options.faults.max_retries = 3;
  tpm::TpmDevice tpm(tpm::default_chip(), bytes_of("chaos-tpm-dead"), clock,
                     options);

  auto blob = tpm.seal(tpm::Locality::kOs, tpm::PcrSelection::of({16}),
                       0xff, bytes_of("secret"));
  ASSERT_FALSE(blob.ok());
  EXPECT_EQ(blob.code(), Err::kInternal);
  EXPECT_EQ(tpm.fault_exhaustions(), 1u);
  EXPECT_EQ(tpm.fault_retries(), 3u);  // the whole budget was spent
  EXPECT_EQ(tpm.transient_faults(), 4u);
}

}  // namespace
}  // namespace tp
