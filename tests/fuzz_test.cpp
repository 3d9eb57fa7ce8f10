// Mutation-fuzz robustness tests.
//
// Every byte the verifying side consumes arrives from an attacker in the
// threat model, so the decoders and verifiers must (a) never crash and
// (b) never upgrade a mutated artifact into an accepted one. These tests
// run deterministic mutation campaigns: take a valid artifact, flip
// random bytes/truncate/extend, and assert the invariant.
#include <gtest/gtest.h>

#include <iterator>
#include <list>
#include <unordered_map>

#include "core/trusted_path_pal.h"
#include "pal/human_agent.h"
#include "proto/session_table.h"
#include "sp/fleet.h"
#include "sp_frames.h"
#include "store/journal.h"
#include "store/shard_state.h"
#include "tpm/quote.h"
#include "util/rng.h"

namespace tp {
namespace {

constexpr int kMutationsPerArtifact = 400;

// Applies one random mutation: flip, truncate, extend, or splice.
Bytes mutate(const Bytes& input, SimRng& rng) {
  Bytes out = input;
  switch (rng.next_below(4)) {
    case 0: {  // bit flip(s)
      if (out.empty()) break;
      const std::size_t flips = 1 + rng.next_below(3);
      for (std::size_t i = 0; i < flips; ++i) {
        out[rng.next_below(out.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
      break;
    }
    case 1: {  // truncate
      if (out.empty()) break;
      out.resize(rng.next_below(out.size()));
      break;
    }
    case 2: {  // extend with junk
      const Bytes junk = rng.next_bytes(1 + rng.next_below(16));
      append(out, junk);
      break;
    }
    case 3: {  // overwrite a window with junk
      if (out.empty()) break;
      const std::size_t start = rng.next_below(out.size());
      const std::size_t len =
          std::min(out.size() - start, 1 + rng.next_below(8));
      const Bytes junk = rng.next_bytes(len);
      std::copy(junk.begin(), junk.end(),
                out.begin() + static_cast<std::ptrdiff_t>(start));
      break;
    }
  }
  return out;
}

TEST(Fuzz, MessageDecodersNeverCrash) {
  SimRng rng(101);
  const core::TxSubmit submit{"client", "pay 10 EUR", Bytes(32, 7)};
  const core::EnrollComplete enroll{"client", Bytes(64, 1), Bytes(128, 2),
                                    Bytes(96, 3)};
  const std::vector<Bytes> corpus = {
      submit.serialize(),
      enroll.serialize(),
      core::TxChallenge{42, Bytes(20, 9)}.serialize(),
      core::TxConfirm{"client", 42, core::Verdict::kConfirmed, Bytes(96, 4)}
          .serialize(),
      core::TxResult{42, true, "ok"}.serialize(),
      core::EnrollChallenge{Bytes(20, 5)}.serialize(),
      core::EnrollResult{false, "nope"}.serialize(),
      core::EnrollBegin{"client"}.serialize(),
  };
  for (const Bytes& seed : corpus) {
    for (int i = 0; i < kMutationsPerArtifact; ++i) {
      const Bytes mutated = mutate(seed, rng);
      // Every decoder must handle every mutation without UB; outcomes
      // are irrelevant, absence of crash/sanitizer-trap is the assertion.
      (void)core::TxSubmit::deserialize(mutated);
      (void)core::TxChallenge::deserialize(mutated);
      (void)core::TxConfirm::deserialize(mutated);
      (void)core::TxResult::deserialize(mutated);
      (void)core::EnrollBegin::deserialize(mutated);
      (void)core::EnrollChallenge::deserialize(mutated);
      (void)core::EnrollComplete::deserialize(mutated);
      (void)core::EnrollResult::deserialize(mutated);
      (void)core::open_envelope(mutated);
    }
  }
}

TEST(Fuzz, SpHandlesArbitraryFramesWithoutCrashing) {
  sp::FleetConfig cfg;
  cfg.client_id = "fuzz";
  cfg.seed = bytes_of("fuzz-sp");
  cfg.tpm_key_bits = 768;
  cfg.client_key_bits = 768;
  sp::Fleet world(cfg);
  SimRng rng(202);

  for (int i = 0; i < 2000; ++i) {
    const Bytes frame = rng.next_bytes(rng.next_below(200));
    const Bytes response = world.sp().handle_frame(frame);
    EXPECT_FALSE(response.empty());  // the server always answers
  }
  EXPECT_EQ(world.sp().stats().tx_accepted, 0u);
}

TEST(Fuzz, MutatedQuotesNeverVerify) {
  SimClock clock;
  tpm::TpmDevice tpm(tpm::default_chip(), bytes_of("fuzz-quote"), clock,
                     tpm::TpmDevice::Options{.key_bits = 768});
  const Bytes nonce(20, 0x11);
  auto quote = tpm.quote(nonce, tpm::PcrSelection::of({17}));
  ASSERT_TRUE(quote.ok());
  const Bytes valid = quote.value().serialize();
  ASSERT_TRUE(tpm::verify_quote(
                  tpm.aik_public(),
                  tpm::QuoteResult::deserialize(valid).value(), nonce)
                  .ok());

  SimRng rng(303);
  int parsed = 0;
  for (int i = 0; i < kMutationsPerArtifact; ++i) {
    const Bytes mutated = mutate(valid, rng);
    if (mutated == valid) continue;
    auto decoded = tpm::QuoteResult::deserialize(mutated);
    if (!decoded.ok()) continue;
    ++parsed;
    // Even when the mutation survives parsing, verification must fail.
    EXPECT_FALSE(
        tpm::verify_quote(tpm.aik_public(), decoded.value(), nonce).ok())
        << "mutation " << i << " verified!";
  }
  // Sanity: the campaign actually exercised the verify path.
  EXPECT_GT(parsed, 0);
}

TEST(Fuzz, MutatedSealedBlobsNeverUnseal) {
  SimClock clock;
  tpm::TpmDevice tpm(tpm::default_chip(), bytes_of("fuzz-seal"), clock,
                     tpm::TpmDevice::Options{.key_bits = 768});
  auto blob = tpm.seal(tpm::Locality::kOs, tpm::PcrSelection::of({10}),
                       0xff, bytes_of("the confirmation key"));
  ASSERT_TRUE(blob.ok());

  SimRng rng(404);
  for (int i = 0; i < kMutationsPerArtifact; ++i) {
    const Bytes mutated = mutate(blob.value(), rng);
    if (mutated == blob.value()) continue;
    auto out = tpm.unseal(tpm::Locality::kOs, mutated);
    EXPECT_FALSE(out.ok()) << "mutation " << i << " unsealed!";
  }
}

TEST(Fuzz, MutatedConfirmationsNeverAccepted) {
  // Full-protocol campaign: mutate a VALID TxConfirm wire message and
  // replay it against the SP; nothing mutated may be accepted.
  sp::FleetConfig cfg;
  cfg.client_id = "victim";
  cfg.seed = bytes_of("fuzz-confirm");
  cfg.tpm_key_bits = 768;
  cfg.client_key_bits = 768;
  sp::Fleet world(cfg);

  devices::HumanParams hp;
  hp.typo_prob = 0.0;
  pal::HumanAgent agent(devices::HumanModel(hp, SimRng(5)), "pay 1");
  world.client().set_user_agent(&agent);
  ASSERT_TRUE(world.client().enroll().ok());

  // Mints a fresh (challenge, genuine confirmation) pair as wire bytes.
  pal::SessionDriver driver(world.platform());
  driver.set_user_agent(&agent);
  auto mint_frame = [&]() -> Bytes {
    core::TxSubmit submit{"victim", "pay 1", bytes_of("p")};
    const auto challenge = test::begin_transaction(world.sp(), submit);
    core::PalConfirmInput in;
    in.tx_summary = "pay 1";
    in.tx_digest = submit.digest();
    in.nonce = challenge.nonce;
    in.sealed_key = world.client().sealed_key_blob();
    auto session = driver.run(core::make_trusted_path_pal(), in.marshal());
    auto pal_out = core::PalConfirmOutput::unmarshal(session.value().output);
    core::TxConfirm confirm{"victim", challenge.tx_id,
                            core::Verdict::kConfirmed,
                            pal_out.value().signature};
    return core::envelope(core::MsgType::kTxConfirm, confirm.serialize());
  };

  const Bytes valid_frame = mint_frame();
  SimRng rng(505);
  for (int i = 0; i < kMutationsPerArtifact; ++i) {
    const Bytes mutated = mutate(valid_frame, rng);
    if (mutated == valid_frame) continue;
    (void)world.sp().handle_frame(mutated);
  }
  // No mutation got a transaction executed. (A mutated frame that still
  // parses MAY legitimately consume the pending challenge -- that is the
  // one-shot design working -- but it must never be accepted.)
  EXPECT_EQ(world.sp().stats().tx_accepted, 0u);

  // A freshly minted genuine confirmation still goes through.
  const Bytes response = world.sp().handle_frame(mint_frame());
  auto opened = core::open_envelope(response);
  ASSERT_TRUE(opened.ok());
  auto result = core::TxResult::deserialize(opened.value().second);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().accepted);
  EXPECT_EQ(world.sp().stats().tx_accepted, 1u);
}

TEST(Fuzz, RandomEventSequencesKeepTheSessionFsmConsistent) {
  // Random walk over the protocol state machine: whatever order events
  // arrive in, every step must stay inside the declared domain and obey
  // the structural invariants (kVerify only from a live challenge,
  // settling events always land in a terminal state, terminal states are
  // only left through kBegin).
  SimRng rng(707);
  for (const auto phase :
       {proto::SessionPhase::kEnroll, proto::SessionPhase::kConfirm}) {
    proto::Session session(phase);
    for (int i = 0; i < 20000; ++i) {
      const auto before = session.state();
      const auto event = static_cast<proto::SessionEvent>(
          rng.next_below(proto::kSessionEventCount));
      const proto::Step step = session.apply(event);

      ASSERT_LT(static_cast<std::size_t>(session.state()),
                proto::kSessionStateCount);
      ASSERT_TRUE(proto::reject_code_valid(
          static_cast<std::uint8_t>(step.reject)));
      if (step.action == proto::SessionAction::kVerify) {
        ASSERT_EQ(before, proto::SessionState::kChallengeSent);
        ASSERT_EQ(session.state(), proto::SessionState::kChallengeSent);
      }
      if (event == proto::SessionEvent::kBegin) {
        ASSERT_EQ(session.state(), proto::SessionState::kChallengeSent);
      } else if (proto::session_state_terminal(before)) {
        ASSERT_EQ(session.state(), before);  // settled stays settled
      }
      if (event == proto::SessionEvent::kVerifyOk &&
          before == proto::SessionState::kChallengeSent) {
        ASSERT_EQ(session.state(), proto::SessionState::kDone);
      }
      if (event == proto::SessionEvent::kVerifyFail &&
          before == proto::SessionState::kChallengeSent) {
        ASSERT_EQ(session.state(), proto::SessionState::kFailed);
      }
    }
  }
}

TEST(Fuzz, SessionTableMatchesReferenceModelUnderRandomOps) {
  // Differential fuzz: drive the open-addressing session table and a
  // dead-simple reference model (list for LRU order + map for lookup)
  // with the same random begin/find/erase/clock-advance sequence; any
  // slot leak, phantom session, or order bug shows up as divergence.
  constexpr std::size_t kCapacity = 16;
  constexpr std::int64_t kTtlNs = 1000;
  proto::SessionTable table(
      {.capacity = kCapacity, .ttl = SimDuration{kTtlNs}});
  const std::size_t memory = table.memory_bytes();

  std::list<std::uint64_t> order;  // front = least recently begun
  std::unordered_map<std::uint64_t,
                     std::pair<std::int64_t, std::list<std::uint64_t>::iterator>>
      model;  // id -> (deadline, position in `order`)
  std::uint64_t model_evictions = 0;
  std::uint64_t model_expirations = 0;
  const auto model_drop = [&](std::uint64_t id) {
    auto it = model.find(id);
    order.erase(it->second.second);
    model.erase(it);
  };
  const auto model_collect = [&](std::int64_t now) {
    while (!order.empty() && model.at(order.front()).first < now) {
      model.erase(order.front());
      order.pop_front();
      ++model_expirations;
    }
  };

  SimRng rng(808);
  std::int64_t now = 0;
  for (int op = 0; op < 50000; ++op) {
    const std::uint64_t id = rng.next_below(64);  // 4x capacity: pressure
    const auto key = proto::SessionTable::tx_key(id);
    switch (rng.next_below(8)) {
      case 0:  // advance the clock (sometimes past whole TTL windows)
        now += static_cast<std::int64_t>(rng.next_below(
            static_cast<std::size_t>(kTtlNs / 2)));
        break;
      case 1: case 2: {  // erase
        table.erase(key);
        if (model.count(id)) model_drop(id);
        break;
      }
      case 3: case 4: case 5: {  // find
        bool expired = false;
        proto::SessionTable::Session* got =
            table.find(key, SimTime{now}, &expired);
        const auto it = model.find(id);
        if (it == model.end()) {
          ASSERT_EQ(got, nullptr) << "op " << op;
          ASSERT_FALSE(expired);
        } else if (it->second.first < now) {
          ASSERT_EQ(got, nullptr) << "op " << op;
          ASSERT_TRUE(expired);
          model_drop(id);
          ++model_expirations;
        } else {
          ASSERT_NE(got, nullptr) << "op " << op;
          ASSERT_FALSE(expired);
        }
        break;
      }
      default: {  // begin
        table.begin(key, SimTime{now});
        model_collect(now);
        if (auto it = model.find(id); it != model.end()) {
          order.erase(it->second.second);  // recycle: refresh order
          model.erase(it);
        } else if (model.size() == kCapacity) {
          model.erase(order.front());
          order.pop_front();
          ++model_evictions;
        }
        order.push_back(id);
        model.emplace(id,
                      std::make_pair(now + kTtlNs, std::prev(order.end())));
        break;
      }
    }
    ASSERT_EQ(table.size(), model.size()) << "op " << op;
    ASSERT_EQ(table.evictions(), model_evictions) << "op " << op;
    ASSERT_EQ(table.expirations(), model_expirations) << "op " << op;
    ASSERT_EQ(table.memory_bytes(), memory) << "op " << op;
  }

  // Full membership audit + drain: every modelled session is findable,
  // nothing else is, and erasing them all leaves zero slots -- no leaks.
  for (std::uint64_t id = 0; id < 64; ++id) {
    proto::SessionTable::Session* got =
        table.find(proto::SessionTable::tx_key(id), SimTime{now});
    ASSERT_EQ(got != nullptr, model.count(id) == 1) << "id " << id;
  }
  for (std::uint64_t id = 0; id < 64; ++id) {
    table.erase(proto::SessionTable::tx_key(id));
  }
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.memory_bytes(), memory);
}

// A small but type-complete journal: one record of every kind, the same
// shape the SP writes in production.
Bytes sample_wal() {
  using store::RecordType;
  proto::SessionTable::Session session;
  session.state = proto::SessionState::kChallengeSent;
  session.deadline = SimTime{5'000};
  session.set_nonce(Bytes(20, 0xab));
  const auto key = proto::SessionTable::tx_key(42);
  store::ReplayDigest digest{};
  digest.fill(0x5c);
  const store::DedupRow row{proto::SessionTable::client_key("fuzz"),
                            proto::SessionTable::payload_key(bytes_of("p")),
                            42};
  Bytes wal;
  std::uint64_t seq = 1;
  append(wal, store::encode_record(
                  seq++, RecordType::kEnrollBegin,
                  store::enroll_begin_body(100, key, session)));
  append(wal, store::encode_record(
                  seq++, RecordType::kEnrollSettle,
                  store::enroll_settle_body(200, key, session, "fuzz",
                                            bytes_of("key-blob"))));
  append(wal, store::encode_record(
                  seq++, RecordType::kTxBegin,
                  store::tx_begin_body(300, key, session, 43, &row)));
  append(wal, store::encode_record(
                  seq++, RecordType::kTxSettle,
                  store::tx_settle_body(400, key, session, 43, 1, &digest)));
  append(wal, store::encode_record(
                  seq++, RecordType::kReplayDigest,
                  store::replay_digest_body(500, digest)));
  append(wal, store::encode_record(seq++, RecordType::kDedupRow,
                                   store::dedup_row_body(600, row)));
  return wal;
}

TEST(Fuzz, JournalDecoderNeverCrashesAndNeverOverreads) {
  // The journal is the one artifact the verifier reads back from disk
  // after a crash, so its decoder faces whatever a dying disk left
  // behind. Mutate a valid journal every way the harness knows, plus
  // pure junk: decode must never trap under ASan/UBSan, must report
  // consumed bytes consistently, and on corruption must name a record
  // inside the buffer.
  const Bytes valid = sample_wal();
  ASSERT_TRUE(store::decode_journal(valid).clean());
  ASSERT_EQ(store::decode_journal(valid).records.size(), 6u);

  SimRng rng(909);
  for (int i = 0; i < 2 * kMutationsPerArtifact; ++i) {
    const Bytes mutated = mutate(valid, rng);
    const store::JournalDecode decoded = store::decode_journal(mutated);
    EXPECT_LE(decoded.valid_bytes, mutated.size());
    EXPECT_LE(decoded.records.size(), mutated.size() / 8 + 1);
    if (decoded.corruption.has_value()) {
      EXPECT_LE(decoded.corruption->byte_offset, mutated.size());
      EXPECT_EQ(decoded.corruption->record_index, decoded.records.size());
      EXPECT_FALSE(decoded.corruption->to_string().empty());
    }
    // Whatever survived framing must also be safe to fold into a state:
    // body parse failures are typed errors, never UB.
    store::ShardStateBuilder builder{store::ShardState{}};
    for (const store::JournalRecord& record : decoded.records) {
      (void)builder.apply(record);
    }
    (void)builder.take();
  }
  for (int i = 0; i < kMutationsPerArtifact; ++i) {
    (void)store::decode_journal(rng.next_bytes(rng.next_below(512)));
  }
}

TEST(Fuzz, MutatedSnapshotsFailClosed) {
  // The snapshot is the other half of recovery. A damaged snapshot must
  // come back as a typed error (recovery refuses to start) -- never a
  // crash, and never a silently different state.
  store::ShardState state;
  state.source_now_ns = 1234;
  state.next_tx_id = 99;
  state.tx_accepted_total = 7;
  state.replay_digests.emplace_back();
  state.replay_digests.back().fill(0x11);
  state.enrolled.push_back({"fuzz-client", bytes_of("key-blob")});
  const Bytes valid = store::serialize_shard_state(state);
  ASSERT_TRUE(store::deserialize_shard_state(valid).ok());

  SimRng rng(1010);
  for (int i = 0; i < 2 * kMutationsPerArtifact; ++i) {
    const Bytes mutated = mutate(valid, rng);
    if (mutated == valid) continue;
    auto decoded = store::deserialize_shard_state(mutated);
    if (decoded.ok()) {
      // The whole-blob CRC makes accidental acceptance of a mutation
      // astronomically unlikely; a surviving decode means the harness
      // produced a no-op (e.g. splice of identical bytes).
      EXPECT_EQ(store::serialize_shard_state(decoded.value()), valid)
          << "mutation " << i << " decoded to a different state";
    }
  }
  for (int i = 0; i < kMutationsPerArtifact; ++i) {
    (void)store::deserialize_shard_state(
        rng.next_bytes(rng.next_below(256)));
  }
}

TEST(Fuzz, MutatedAikCertificatesNeverVerify) {
  SimClock clock;
  tpm::TpmDevice tpm(tpm::default_chip(), bytes_of("fuzz-cert"), clock,
                     tpm::TpmDevice::Options{.key_bits = 768});
  tpm::PrivacyCa ca(bytes_of("fuzz-ca"), 768);
  const Bytes valid = ca.certify("client", tpm.aik_public()).serialize();

  SimRng rng(606);
  for (int i = 0; i < kMutationsPerArtifact; ++i) {
    const Bytes mutated = mutate(valid, rng);
    if (mutated == valid) continue;
    auto decoded = tpm::AikCertificate::deserialize(mutated);
    if (!decoded.ok()) continue;
    EXPECT_FALSE(tpm::PrivacyCa::verify(ca.public_key(), decoded.value())
                     .ok())
        << "mutation " << i;
  }
}

}  // namespace
}  // namespace tp
