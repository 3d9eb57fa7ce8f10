// Differential corpus replay: shell-on-SpCore vs the pre-refactor twin.
//
// The core/shell refactor (proto::SpCore driving a thin ServiceProvider
// shell) promises byte-identical frame handling. This suite pins that
// promise two ways:
//
//   1. A deterministic corpus of protocol traffic -- clean exchanges,
//      byte-identical retransmits, replayed signatures, cross-client
//      confirms, expired sessions, mutated/garbage frames, in-batch
//      duplicates -- is replayed through handle_frame one frame at a time
//      and through handle_frame_batch in whole-epoch chunks; every
//      response must match byte for byte and the final counters/tables
//      must agree.
//   2. The sequential responses are folded into an order-sensitive
//      FNV-1a fingerprint that was recorded from the PRE-refactor
//      ServiceProvider (the 1,001-line monolithic handle_frame). The
//      constant below IS the pre-refactor twin: any post-refactor
//      behaviour drift -- one byte, one reject code, one nonce -- breaks
//      the fingerprint.
// handle_frame and handle_frame_batch are the SP's only entry points, so
// these two replays cover every way a message can reach it.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/trusted_path_pal.h"
#include "pal/human_agent.h"
#include "pal/session.h"
#include "sp/fleet.h"
#include "util/rng.h"

namespace tp {
namespace {

// Golden fingerprints recorded from the pre-refactor ServiceProvider
// (commit 4303e45, the sequential monolithic handle_frame). Do not
// update these casually: a mismatch means the refactor changed wire
// behaviour.
constexpr std::uint64_t kGoldenResponseFingerprint = 0x7b0e86ca49e5e0ddull;
constexpr std::uint64_t kGoldenStateFingerprint = 0xa00dec8b2909c128ull;

std::uint64_t fnv1a(std::uint64_t h, BytesView data) {
  for (const std::uint8_t b : data) {
    h = (h ^ b) * 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xff)) * 0x100000001b3ull;
    v >>= 8;
  }
  return h;
}

// One batch of frames handled at a single session-timeline position.
struct Epoch {
  SimTime now{0};
  std::vector<Bytes> frames;
};

sp::SpConfig corpus_sp_config(tpm::PrivacyCa& ca) {
  sp::SpConfig cfg;
  cfg.golden_pcr17 = core::golden_pcr17();
  cfg.ca_public = ca.public_key();
  cfg.seed = bytes_of("differential-sp");
  // Small tables so the corpus exercises eviction pressure too.
  cfg.enroll_session_capacity = 8;
  cfg.tx_session_capacity = 16;
  return cfg;
}

/// Builds the corpus by driving a generation SP (identical config and
/// nonce stream as the replay SPs) and recording every (now, frame)
/// pair. The PAL runs real enrollment/confirmation sessions so the
/// corpus carries genuine quotes and signatures.
class CorpusBuilder {
 public:
  CorpusBuilder()
      : world_(make_world()),
        ca_(world_.ca()),
        gen_(corpus_sp_config(ca_)),
        driver_(world_.platform()),
        agent_(devices::HumanModel(human_params(), SimRng(11)), "") {
    driver_.set_user_agent(&agent_);
    credential_ =
        ca_.certify("diff-client", world_.platform().tpm().aik_public())
            .serialize();
  }

  std::vector<Epoch> build() {
    std::vector<Epoch> corpus;

    // Epoch 0: a clean enrollment, its byte-identical retransmits, and a
    // flood of one-sided begins from other clients (eviction pressure).
    begin_epoch(corpus, SimTime{0});
    const Bytes enroll_begin = core::envelope(
        core::MsgType::kEnrollBegin,
        core::EnrollBegin{"diff-client"}.serialize());
    const Bytes challenge_frame = record(corpus, enroll_begin);
    record(corpus, enroll_begin);  // retransmit -> replayed challenge
    const Bytes enroll_complete = make_enroll_complete(challenge_frame);
    record(corpus, enroll_complete);
    record(corpus, enroll_complete);  // retransmit -> replayed result
    record(corpus, core::envelope(core::MsgType::kEnrollComplete,
                            mutate_tail(enroll_complete)));  // retry mismatch
    for (int i = 0; i < 10; ++i) {
      record(corpus,
             core::envelope(core::MsgType::kEnrollBegin,
                      core::EnrollBegin{"bystander-" + std::to_string(i)}
                          .serialize()));
    }

    // Epoch 1: confirmations -- accepted, duplicated, replayed signature
    // under a fresh challenge, wrong client, explicit user verdicts,
    // garbage signature, unknown tx.
    begin_epoch(corpus, SimTime{0} + SimDuration::seconds(1));
    const auto [confirm_a, sig_a] = make_confirmed_tx(corpus, "pay 10 to a");
    record(corpus, confirm_a);
    record(corpus, confirm_a);  // retransmit -> replayed result
    record(corpus, core::envelope(core::MsgType::kTxConfirm,
                            mutate_tail(confirm_a)));  // retry mismatch

    // Replay the accepted signature against a fresh challenge.
    const std::uint64_t tx_replay =
        submit_tx(corpus, "diff-client", "pay 10 to a");
    record(corpus, confirm_frame("diff-client", tx_replay,
                                 core::Verdict::kConfirmed, sig_a));
    // Unknown transaction id.
    record(corpus, confirm_frame("diff-client", 0xdead,
                                 core::Verdict::kConfirmed, sig_a));
    // Wrong client on a live session.
    const std::uint64_t tx_cross =
        submit_tx(corpus, "diff-client", "pay 20 to b");
    record(corpus, confirm_frame("mallory", tx_cross,
                                 core::Verdict::kConfirmed, sig_a));
    // Human said no / nobody answered.
    const std::uint64_t tx_no = submit_tx(corpus, "diff-client", "pay 30");
    record(corpus,
           confirm_frame("diff-client", tx_no, core::Verdict::kRejected, {}));
    const std::uint64_t tx_silent =
        submit_tx(corpus, "diff-client", "pay 40");
    record(corpus, confirm_frame("diff-client", tx_silent,
                                 core::Verdict::kTimeout, {}));
    // Garbage signature on a live session.
    const std::uint64_t tx_junk = submit_tx(corpus, "diff-client", "pay 50");
    record(corpus, confirm_frame("diff-client", tx_junk,
                                 core::Verdict::kConfirmed,
                                 rng_.next_bytes(96)));

    // Epoch 2: in-batch duplicates -- duplicate tx ids and duplicate
    // signature bytes inside one epoch (one handle_frame_batch call),
    // interleaved with other types.
    begin_epoch(corpus, SimTime{0} + SimDuration::seconds(2));
    const auto [confirm_b, sig_b] = make_confirmed_tx(corpus, "batch 1");
    const auto [confirm_c, sig_c] = make_confirmed_tx(corpus, "batch 2");
    record(corpus, confirm_b);
    record(corpus, confirm_c);
    record(corpus, confirm_b);  // same tx id + signature: a retransmit
    record(corpus, confirm_frame("diff-client",
                                 submit_tx(corpus, "batch 3"),
                                 core::Verdict::kConfirmed, sig_c));

    // Epoch 3: malformed payloads, unexpected types, raw garbage.
    begin_epoch(corpus, SimTime{0} + SimDuration::seconds(3));
    record(corpus, core::envelope(core::MsgType::kEnrollBegin, Bytes{0xff}));
    record(corpus, core::envelope(core::MsgType::kEnrollComplete, Bytes{}));
    record(corpus, core::envelope(core::MsgType::kTxSubmit, Bytes{0x01}));
    record(corpus, core::envelope(core::MsgType::kTxConfirm, Bytes{0x02, 0x03}));
    record(corpus, core::envelope(core::MsgType::kTxChallenge,
                            core::TxChallenge{9, Bytes(20, 1)}.serialize()));
    record(corpus, core::envelope(core::MsgType::kEnrollResult,
                            core::EnrollResult{true, "ok"}.serialize()));
    for (int i = 0; i < 12; ++i) {
      record(corpus, rng_.next_bytes(rng_.next_below(48)));
    }

    // Epoch 4: far future -- a challenge issued in epoch 3 has expired.
    begin_epoch(corpus, SimTime{0} + SimDuration::seconds(3));
    const std::uint64_t tx_stale = submit_tx(corpus, "expire me");
    begin_epoch(corpus, SimTime{0} + SimDuration::seconds(400));
    record(corpus, confirm_frame("diff-client", tx_stale,
                                 core::Verdict::kConfirmed, sig_b));
    // And a fresh exchange still works at the new timeline position.
    const auto [confirm_d, sig_d] = make_confirmed_tx(corpus, "late pay");
    record(corpus, confirm_d);
    (void)sig_d;
    return corpus;
  }

 private:
  static sp::Fleet make_world() {
    sp::FleetConfig cfg;
    cfg.client_id = "diff-client";
    cfg.seed = bytes_of("differential-world");
    cfg.tpm_key_bits = 768;
    cfg.client_key_bits = 768;
    return sp::Fleet(cfg);
  }

  static devices::HumanParams human_params() {
    devices::HumanParams hp;
    hp.typo_prob = 0.0;
    hp.attention = 1.0;
    return hp;
  }

  void begin_epoch(std::vector<Epoch>& corpus, SimTime now) {
    corpus.push_back(Epoch{now, {}});
    gen_.advance_time_to(now);
  }

  /// Records `frame` into the open epoch and plays it through the
  /// generation SP, returning the response (the corpus builder needs the
  /// challenges it contains).
  Bytes record(std::vector<Epoch>& corpus, Bytes frame) {
    const Bytes response = gen_.handle_frame(frame, corpus.back().now);
    corpus.back().frames.push_back(std::move(frame));
    return response;
  }

  Bytes make_enroll_complete(const Bytes& challenge_frame) {
    auto opened = core::open_envelope(challenge_frame);
    EXPECT_TRUE(opened.ok());
    auto challenge = core::EnrollChallenge::deserialize(opened.value().second);
    EXPECT_TRUE(challenge.ok());
    core::PalEnrollInput in;
    in.nonce = challenge.value().nonce;
    in.key_bits = 768;
    auto session = driver_.run(core::make_trusted_path_pal(), in.marshal());
    EXPECT_TRUE(session.ok() && session.value().status.ok());
    auto out = core::PalEnrollOutput::unmarshal(session.value().output);
    EXPECT_TRUE(out.ok());
    sealed_key_ = out.value().sealed_key;
    core::EnrollComplete complete;
    complete.client_id = "diff-client";
    complete.confirmation_pubkey = out.value().pubkey;
    complete.quote = out.value().quote;
    complete.aik_certificate = credential_;
    return core::envelope(core::MsgType::kEnrollComplete, complete.serialize());
  }

  std::uint64_t submit_tx(std::vector<Epoch>& corpus,
                          const std::string& client,
                          const std::string& summary) {
    core::TxSubmit submit{client, summary, bytes_of("p:" + summary)};
    const Bytes response = record(
        corpus, core::envelope(core::MsgType::kTxSubmit, submit.serialize()));
    auto opened = core::open_envelope(response);
    EXPECT_TRUE(opened.ok());
    auto challenge = core::TxChallenge::deserialize(opened.value().second);
    EXPECT_TRUE(challenge.ok());
    last_nonce_ = challenge.value().nonce;
    last_digest_ = submit.digest();
    return challenge.value().tx_id;
  }
  std::uint64_t submit_tx(std::vector<Epoch>& corpus,
                          const std::string& summary) {
    return submit_tx(corpus, "diff-client", summary);
  }

  static Bytes confirm_frame(const std::string& client, std::uint64_t tx_id,
                             core::Verdict verdict, Bytes signature) {
    core::TxConfirm confirm;
    confirm.client_id = client;
    confirm.tx_id = tx_id;
    confirm.verdict = verdict;
    confirm.signature = std::move(signature);
    return core::envelope(core::MsgType::kTxConfirm, confirm.serialize());
  }

  /// Submits + runs the real confirmation PAL: a genuinely accepted
  /// TxConfirm frame and its signature bytes.
  std::pair<Bytes, Bytes> make_confirmed_tx(std::vector<Epoch>& corpus,
                                            const std::string& summary) {
    agent_.set_intended_summary(summary);
    const std::uint64_t tx_id = submit_tx(corpus, summary);
    core::PalConfirmInput in;
    in.tx_summary = summary;
    in.tx_digest = last_digest_;
    in.nonce = last_nonce_;
    in.sealed_key = sealed_key_;
    auto session = driver_.run(core::make_trusted_path_pal(), in.marshal());
    EXPECT_TRUE(session.ok() && session.value().status.ok());
    auto out = core::PalConfirmOutput::unmarshal(session.value().output);
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.value().verdict, core::Verdict::kConfirmed);
    return {confirm_frame("diff-client", tx_id, core::Verdict::kConfirmed,
                          out.value().signature),
            out.value().signature};
  }

  Bytes mutate_tail(const Bytes& frame) {
    auto opened = core::open_envelope(frame);
    EXPECT_TRUE(opened.ok());
    Bytes payload = opened.value().second;
    if (!payload.empty()) payload.back() ^= 0x01;
    return payload;
  }

  sp::Fleet world_;
  tpm::PrivacyCa& ca_;
  sp::ServiceProvider gen_;
  pal::SessionDriver driver_;
  pal::HumanAgent agent_;
  Bytes credential_;
  Bytes sealed_key_;
  Bytes last_nonce_;
  Bytes last_digest_;
  SimRng rng_{0xd1ffull};
};

std::uint64_t state_fingerprint(sp::ServiceProvider& sp) {
  const sp::SpStats stats = sp.stats();
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a_u64(h, stats.enrolled);
  h = fnv1a_u64(h, stats.enroll_rejected);
  h = fnv1a_u64(h, stats.tx_accepted);
  h = fnv1a_u64(h, stats.tx_rejected);
  for (const std::uint64_t v : stats.rejects_by_code) h = fnv1a_u64(h, v);
  h = fnv1a_u64(h, stats.sessions_evicted);
  h = fnv1a_u64(h, stats.sessions_expired);
  h = fnv1a_u64(h, sp.session_table_occupancy());
  h = fnv1a_u64(h, sp.replay_cache_size());
  h = fnv1a_u64(h, sp.enrolled_count());
  h = fnv1a_u64(h, sp.replayed_challenges());
  h = fnv1a_u64(h, sp.replayed_results());
  return h;
}

class DifferentialCorpus : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    builder_ = new CorpusBuilder();
    corpus_ = new std::vector<Epoch>(builder_->build());
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
    delete builder_;
    builder_ = nullptr;
  }

  static CorpusBuilder* builder_;
  static std::vector<Epoch>* corpus_;
};

CorpusBuilder* DifferentialCorpus::builder_ = nullptr;
std::vector<Epoch>* DifferentialCorpus::corpus_ = nullptr;

TEST_F(DifferentialCorpus, SequentialReplayMatchesPreRefactorFingerprint) {
  sp::Fleet ca_world = [] {
    sp::FleetConfig cfg;
    cfg.client_id = "diff-client";
    cfg.seed = bytes_of("differential-world");
    cfg.tpm_key_bits = 768;
    cfg.client_key_bits = 768;
    return sp::Fleet(cfg);
  }();
  sp::ServiceProvider seq(corpus_sp_config(ca_world.ca()));

  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Epoch& epoch : *corpus_) {
    for (const Bytes& frame : epoch.frames) {
      const Bytes response = seq.handle_frame(frame, epoch.now);
      ASSERT_FALSE(response.empty());
      h = fnv1a(h, response);
      h = (h ^ 0x7c) * 0x100000001b3ull;  // frame separator
    }
  }
  std::printf("response fingerprint: 0x%016llx\n",
              static_cast<unsigned long long>(h));
  std::printf("state fingerprint:    0x%016llx\n",
              static_cast<unsigned long long>(state_fingerprint(seq)));
  EXPECT_EQ(h, kGoldenResponseFingerprint)
      << "handle_frame responses drifted from the pre-refactor twin";
  EXPECT_EQ(state_fingerprint(seq), kGoldenStateFingerprint)
      << "final SP state drifted from the pre-refactor twin";
}

TEST_F(DifferentialCorpus, BatchedReplayIsByteIdenticalToSequential) {
  sp::Fleet ca_world = [] {
    sp::FleetConfig cfg;
    cfg.client_id = "diff-client";
    cfg.seed = bytes_of("differential-world");
    cfg.tpm_key_bits = 768;
    cfg.client_key_bits = 768;
    return sp::Fleet(cfg);
  }();
  sp::ServiceProvider seq(corpus_sp_config(ca_world.ca()));
  sp::ServiceProvider bat(corpus_sp_config(ca_world.ca()));

  for (const Epoch& epoch : *corpus_) {
    std::vector<Bytes> seq_out;
    for (const Bytes& frame : epoch.frames) {
      seq_out.push_back(seq.handle_frame(frame, epoch.now));
    }
    std::vector<BytesView> views;
    views.reserve(epoch.frames.size());
    for (const Bytes& frame : epoch.frames) views.emplace_back(frame);
    const std::vector<Bytes> bat_out = bat.handle_frame_batch(views, epoch.now);
    ASSERT_EQ(seq_out.size(), bat_out.size());
    for (std::size_t i = 0; i < seq_out.size(); ++i) {
      EXPECT_EQ(seq_out[i], bat_out[i]) << "frame " << i << " diverged";
    }
  }
  EXPECT_EQ(state_fingerprint(seq), state_fingerprint(bat));
  EXPECT_EQ(seq.session_table_memory_bytes(), bat.session_table_memory_bytes());
}

}  // namespace
}  // namespace tp
