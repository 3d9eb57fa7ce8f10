// Differential suites for the batched data plane: the ring-buffer
// queue against its contract (FIFO across wraps, bounded pop_batch
// drains, producers unblocked by a drain), and the SP frame batch path
// (handle_frame_batch, what a svc worker calls once per drain) against
// sequential handle_frame on a twin service provider. Run via
// `ctest -L batch`; CI repeats the label under ASan and UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/trusted_path_pal.h"
#include "devices/human.h"
#include "pal/session.h"
#include "sp/service_provider.h"
#include "svc/bounded_queue.h"
#include "tpm/privacy_ca.h"

namespace tp {
namespace {

// ---- ring-buffer queue semantics ---------------------------------------

TEST(BoundedQueueTest, RingWrapsAndPreservesFifoOrder) {
  svc::BoundedQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  // Cycle enough items through a small ring that head_ wraps several
  // times; FIFO order must survive every wrap.
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 5; ++round) {
    while (q.try_push(int{next_in})) ++next_in;
    EXPECT_EQ(q.size(), 4u);
    for (int i = 0; i < 3; ++i) {
      auto got = q.try_pop();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, next_out++);
    }
  }
  while (auto got = q.try_pop()) EXPECT_EQ(*got, next_out++);
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, PopBatchDrainsUpToBoundInOrder) {
  svc::BoundedQueue<int> q(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.try_push(int{i}));
  std::vector<int> out{99, 99};  // pop_batch must clear stale contents
  EXPECT_EQ(q.pop_batch(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  // A bound above the occupancy delivers what is there, without waiting
  // for more.
  EXPECT_EQ(q.pop_batch(out, 16), 6u);
  EXPECT_EQ(out, (std::vector<int>{4, 5, 6, 7, 8, 9}));
  // max_n == 0 is treated as 1, not as "drain nothing forever".
  ASSERT_TRUE(q.try_push(42));
  EXPECT_EQ(q.pop_batch(out, 0), 1u);
  EXPECT_EQ(out, (std::vector<int>{42}));
}

TEST(BoundedQueueTest, PopBatchDrainsAfterCloseThenReportsDone) {
  svc::BoundedQueue<std::unique_ptr<int>> q(8);  // move-only payloads
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.try_push(std::make_unique<int>(i)));
  }
  q.close();
  EXPECT_FALSE(q.try_push(std::make_unique<int>(99)));
  std::vector<std::unique_ptr<int>> out;
  EXPECT_EQ(q.pop_batch(out, 8), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(*out[i], i);
  // Closed and drained: returns 0 instead of blocking.
  EXPECT_EQ(q.pop_batch(out, 8), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(BoundedQueueTest, PopBatchFreesSlotsForBlockedProducers) {
  svc::BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.try_push(int{i}));
  std::thread producer([&q] {
    for (int i = 4; i < 8; ++i) ASSERT_TRUE(q.push(int{i}));  // blocks: full
  });
  std::vector<int> seen;
  std::vector<int> out;
  while (seen.size() < 8) {
    ASSERT_GT(q.pop_batch(out, 4), 0u);
    seen.insert(seen.end(), out.begin(), out.end());
  }
  producer.join();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(seen[i], i);
}

// ---- SP batch frame path ----------------------------------------------

namespace spbatch {

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

sp::SpConfig sp_config(const tpm::PrivacyCa& ca) {
  sp::SpConfig cfg;
  cfg.golden_pcr17 = core::golden_pcr17();
  cfg.ca_public = ca.public_key();
  cfg.accepted_policies = {
      core::attestation_policy(drtm::DrtmTechnology::kAmdSkinit),
      core::attestation_policy(drtm::DrtmTechnology::kAmdSkinit, {},
                               tpm::QuoteFormat::kTpm2),
  };
  return cfg;
}

/// A mixed TPM 1.2 / 2.0 member population with real PAL sessions, plus
/// a recorded trace of request frames. The trace mixes valid confirms
/// with every adversarial shape whose handling the batch path must
/// reproduce: corrupted signatures, user rejections, unknown tx ids,
/// client mismatches, reused signatures, and byte-identical
/// retransmissions. Frame generation consults a reference SP so that
/// challenges bind correctly; any twin SP constructed with the same
/// config replays the identical trace (all nonce/tx-id draws are
/// deterministic in frame order).
struct TraceHarness {
  tpm::PrivacyCa ca;
  sp::ServiceProvider reference;
  ScriptedCodeAgent agent;
  struct Member {
    std::string id;
    std::unique_ptr<drtm::Platform> platform;
    std::unique_ptr<pal::SessionDriver> driver;
    Bytes sealed_key;
  };
  std::vector<Member> members;
  std::vector<Bytes> trace;            // request frames, in order
  std::vector<Bytes> want_responses;   // the reference SP's answers

  TraceHarness() : ca(bytes_of("batch-sp-ca"), 1024), reference(sp_config(ca)) {
    const tpm::QuoteFormat backends[] = {tpm::QuoteFormat::kTpm12,
                                         tpm::QuoteFormat::kTpm2};
    for (std::size_t m = 0; m < 2; ++m) {
      Member member;
      member.id = "client-" + std::to_string(m);
      drtm::PlatformConfig pc;
      pc.platform_id = member.id;
      pc.seed = bytes_of("batch-sp-platform-" + std::to_string(m));
      pc.tpm_key_bits = 1024;
      pc.backend = backends[m];
      member.platform = std::make_unique<drtm::Platform>(pc);
      member.driver = std::make_unique<pal::SessionDriver>(*member.platform);
      member.driver->set_user_agent(&agent);
      members.push_back(std::move(member));
    }

    // Enrollment rides the trace too: the challenge nonce a twin SP
    // issues is identical (same seed, same draw order), so the recorded
    // EnrollComplete binds for every replay.
    for (std::size_t m = 0; m < 2; ++m) {
      Member& member = members[m];
      const Bytes begin = core::envelope(
          core::MsgType::kEnrollBegin,
          core::EnrollBegin{member.id}.serialize());
      const Bytes challenge_frame = feed(begin);
      auto opened = core::open_envelope(challenge_frame);
      auto challenge =
          core::EnrollChallenge::deserialize(opened.value().second);

      core::PalEnrollInput in;
      in.nonce = challenge.value().nonce;
      in.key_bits = 1024;
      auto session =
          member.driver->run(core::make_trusted_path_pal(), in.marshal());
      auto out = core::PalEnrollOutput::unmarshal(session.value().output);
      member.sealed_key = out.value().sealed_key;
      core::EnrollComplete complete;
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
      feed(core::envelope(core::MsgType::kEnrollComplete,
                          complete.serialize()));
    }
  }

  /// Appends a request frame to the trace and returns the reference
  /// SP's response (also recorded).
  Bytes feed(Bytes frame) {
    Bytes response = reference.handle_frame(frame);
    trace.push_back(std::move(frame));
    want_responses.push_back(response);
    return response;
  }

  /// Mints one genuine signed confirmation bound to a challenge the
  /// reference SP just issued (the TxSubmit frame joins the trace).
  core::TxConfirm mint(std::uint64_t i) {
    Member& member = members[i % members.size()];
    core::TxSubmit submit{member.id, "pay " + std::to_string(i),
                          Bytes(64, 1)};
    const Bytes challenge_frame = feed(
        core::envelope(core::MsgType::kTxSubmit, submit.serialize()));
    auto opened = core::open_envelope(challenge_frame);
    auto challenge = core::TxChallenge::deserialize(opened.value().second);

    core::PalConfirmInput in;
    in.tx_summary = submit.summary;
    in.tx_digest = submit.digest();
    in.nonce = challenge.value().nonce;
    in.sealed_key = member.sealed_key;
    auto session =
        member.driver->run(core::make_trusted_path_pal(), in.marshal());
    auto out = core::PalConfirmOutput::unmarshal(session.value().output);
    core::TxConfirm confirm;
    confirm.client_id = member.id;
    confirm.tx_id = challenge.value().tx_id;
    confirm.verdict = out.value().verdict;
    confirm.signature = out.value().signature;
    return confirm;
  }

  void feed_confirm(const core::TxConfirm& confirm) {
    feed(core::envelope(core::MsgType::kTxConfirm, confirm.serialize()));
  }
};

void expect_same_stats(const sp::SpStats& got, const sp::SpStats& want) {
  EXPECT_EQ(got.enrolled, want.enrolled);
  EXPECT_EQ(got.enroll_rejected, want.enroll_rejected);
  EXPECT_EQ(got.tx_accepted, want.tx_accepted);
  EXPECT_EQ(got.tx_rejected, want.tx_rejected);
  EXPECT_EQ(got.enrolled_by_format, want.enrolled_by_format);
  EXPECT_EQ(got.tx_accepted_by_format, want.tx_accepted_by_format);
  EXPECT_EQ(got.rejects_by_code, want.rejects_by_code);
}

}  // namespace spbatch

TEST(SpBatchTest, FrameBatchMatchesSequentialFrameHandling) {
  spbatch::TraceHarness harness;

  // A trace interleaving every confirm shape. Valid accepts first (so
  // their signatures land in the replay cache), then the adversarial
  // rounds.
  std::vector<core::TxConfirm> minted;
  for (std::uint64_t i = 0; i < 10; ++i) minted.push_back(harness.mint(i));

  for (std::size_t i = 0; i < minted.size(); ++i) {
    core::TxConfirm confirm = minted[i];
    switch (i % 5) {
      case 0:  // valid
        break;
      case 1:  // corrupted signature
        confirm.signature[12] ^= 0x08;
        break;
      case 2:  // user rejected
        confirm.verdict = core::Verdict::kRejected;
        break;
      case 3:  // unknown tx id
        confirm.tx_id += 100000;
        break;
      case 4:  // client mismatch
        confirm.client_id = harness.members[(i + 1) % 2].id;
        break;
    }
    harness.feed_confirm(confirm);
  }
  // Retransmission of an accepted confirm (idempotent replay), a reused
  // signature on a fresh challenge (replay-cache reject), and a second,
  // different confirm for an already-settled session (retry mismatch).
  harness.feed_confirm(minted[0]);
  core::TxConfirm reused = harness.mint(20);
  reused.signature = minted[5].signature;
  harness.feed_confirm(reused);
  core::TxConfirm mismatch = minted[0];
  mismatch.verdict = core::Verdict::kRejected;
  harness.feed_confirm(mismatch);
  // Frame-level garbage rides along untouched.
  harness.feed(Bytes{0xde, 0xad, 0xbe, 0xef});

  const sp::SpStats want_stats = harness.reference.stats();

  // Replay the identical trace through handle_frame_batch at several
  // chunk sizes (1 degenerates to the sequential path; the full trace
  // is one batch).
  const std::size_t chunk_sizes[] = {1, 3, 7, 16, harness.trace.size()};
  for (const std::size_t chunk : chunk_sizes) {
    sp::ServiceProvider twin(spbatch::sp_config(harness.ca));
    std::vector<Bytes> got;
    for (std::size_t start = 0; start < harness.trace.size();
         start += chunk) {
      const std::size_t len =
          std::min(chunk, harness.trace.size() - start);
      std::vector<BytesView> frames(len);
      for (std::size_t j = 0; j < len; ++j) {
        frames[j] = harness.trace[start + j];
      }
      std::vector<Bytes> responses = twin.handle_frame_batch(frames);
      for (Bytes& r : responses) got.push_back(std::move(r));
    }
    ASSERT_EQ(got.size(), harness.want_responses.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], harness.want_responses[i])
          << "chunk=" << chunk << " frame=" << i;
    }
    spbatch::expect_same_stats(twin.stats(), want_stats);
    EXPECT_EQ(twin.replay_cache_size(), harness.reference.replay_cache_size())
        << "chunk=" << chunk;
    EXPECT_EQ(twin.session_table_occupancy(),
              harness.reference.session_table_occupancy())
        << "chunk=" << chunk;
  }
}

TEST(SpBatchTest, BatchOfDistinctValidConfirmsAllAccept) {
  spbatch::TraceHarness harness;
  std::vector<core::TxConfirm> minted;
  for (std::uint64_t i = 0; i < 8; ++i) minted.push_back(harness.mint(i));

  sp::ServiceProvider twin(spbatch::sp_config(harness.ca));
  const std::uint64_t before = twin.stats().tx_accepted;
  std::vector<Bytes> frames = harness.trace;  // enrollment + submits
  for (const core::TxConfirm& confirm : minted) {
    frames.push_back(
        core::envelope(core::MsgType::kTxConfirm, confirm.serialize()));
  }
  std::vector<BytesView> views(frames.begin(), frames.end());
  (void)twin.handle_frame_batch(views);
  EXPECT_EQ(twin.stats().tx_accepted - before, minted.size());
  EXPECT_EQ(twin.stats().tx_accepted_format(tpm::QuoteFormat::kTpm12), 4u);
  EXPECT_EQ(twin.stats().tx_accepted_format(tpm::QuoteFormat::kTpm2), 4u);
}

}  // namespace
}  // namespace tp
