// Crash-recovery suite (`ctest -L crash`, probabilistic members also
// under `-L chaos`): exactly-once across process deaths.
//
// Three layers of the crash story:
//   - SP: restore-from-journal is *equivalent* to the pre-crash SP --
//     byte-identical retransmit replies and identical handoff/export
//     output, across randomized workloads, crash points and torn
//     tails (the property the write-ahead contract exists to provide).
//     Enrollment state survives too: a client admitted before the
//     crash submits fresh transactions afterwards, verified against
//     the recovered attestation key.
//   - svc: an injected storage crash mid-frame, or a real I/O error
//     from the backend, flips the service into crashed mode (kShutdown
//     for everything, nothing acked that the journal did not see); a
//     replacement built from the same log replays cached responses
//     byte-identically.
//   - group commit: a drained batch journals exactly the bytes the same
//     frames journal one by one, in one backend append; a tear inside
//     that append fails the whole batch and recovers its whole-record
//     prefix, and retransmits then settle every confirm exactly once.
//   - cluster: the PR 5 invariant extended from lossy links to dying
//     processes -- 10k transactions at ~26% injected faults with
//     shards killed at random journal offsets and restarted mid-run,
//     client-side accepts == cluster-side settles, zero
//     double-execution. Attestation keys moved by a durable handoff
//     come back from their new owner's log when every member restarts.
//
// Probabilistic members honour TP_CHAOS_SEED (CI randomizes it; the
// seed is printed so any failure is replayable).
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdlib>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/verifier_cluster.h"
#include "core/messages.h"
#include "pal/human_agent.h"
#include "sp/fleet.h"
#include "sp/service_provider.h"
#include "store/durable_log.h"
#include "store/journal.h"
#include "store/shard_state.h"
#include "store/storage_backend.h"
#include "svc/verifier_service.h"
#include "sp_frames.h"

namespace tp {
namespace {

using core::MsgType;
using core::TxChallenge;
using core::Verdict;
using store::CrashInjected;
using store::DurableLog;
using store::DurableLogConfig;
using store::MemoryBackend;
using test::challenge_tx_id;
using test::confirm_frame;
using test::result_accepted;
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

/// Test double over a MemoryBackend: counts append_journal calls, can
/// fail every append with a std::runtime_error (a disk reporting
/// ENOSPC), and can park the committing thread just after one append has
/// landed until the test releases it.
class ProbeBackend final : public store::StorageBackend {
 public:
  void append_journal(BytesView record) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (failing_) {
      throw std::runtime_error(
          "FileBackend: write journal.wal: No space left on device");
    }
    inner_.append_journal(record);
    ++appends_;
    if (hold_next_) {
      hold_next_ = false;
      held_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return !held_; });
    }
  }
  Bytes read_journal() const override { return inner_.read_journal(); }
  void reset_journal() override { inner_.reset_journal(); }
  void write_snapshot(BytesView blob) override { inner_.write_snapshot(blob); }
  Bytes read_snapshot() const override { return inner_.read_snapshot(); }
  std::uint64_t journal_bytes() const override {
    return inner_.journal_bytes();
  }
  std::uint64_t appended_total() const override {
    return inner_.appended_total();
  }
  bool supports_crash_injection() const override { return true; }
  void crash_at_bytes(std::uint64_t offset) override {
    inner_.crash_at_bytes(offset);
  }
  void clear_crash_point() override { inner_.clear_crash_point(); }

  std::size_t appends() const {
    std::lock_guard<std::mutex> lock(mu_);
    return appends_;
  }
  void set_failing(bool failing) {
    std::lock_guard<std::mutex> lock(mu_);
    failing_ = failing;
  }
  /// Parks the next append after it lands; wait_until_held() returns
  /// once it has, release() lets it return.
  void hold_next_append() {
    std::lock_guard<std::mutex> lock(mu_);
    hold_next_ = true;
  }
  void wait_until_held() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return held_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = false;
    cv_.notify_all();
  }

 private:
  MemoryBackend inner_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t appends_ = 0;
  bool failing_ = false;
  bool hold_next_ = false;
  bool held_ = false;
};

/// Canonical comparison key for everything a shard must not forget,
/// with the session-timeline position normalized away: retransmits
/// (answered from cache, never journaled) legitimately advance the live
/// SP's clock past the journal's last record.
Bytes state_fingerprint(const sp::ServiceProvider& sp) {
  store::ShardState state = sp.export_state();
  state.source_now_ns = 0;
  return store::serialize_shard_state(state);
}

/// Asserts two SPs answered one frame equivalently. Byte-identical is
/// the norm (cached replies, deterministic rejects). The one sanctioned
/// divergence: a TxSubmit that misses the dedup cache on BOTH sides
/// (slot overwritten -- direct-mapped, collisions overwrite) opens a
/// fresh session, and recovery reseeds the nonce DRBG (the journal does
/// not capture stream positions; re-issuing pre-crash nonces would be a
/// security bug), so the fresh challenges carry the same tx_id -- the
/// tx-id cursor IS recovered -- but different nonces. An asymmetric
/// cache miss still fails loudly: the fresh side would mint a *new*
/// tx_id while the cached side replays the old one.
void expect_equivalent_reply(const Bytes& a, const Bytes& b,
                             const std::string& context) {
  if (a == b) return;
  auto oa = core::open_envelope(a);
  auto ob = core::open_envelope(b);
  ASSERT_TRUE(oa.ok() && ob.ok()) << context;
  ASSERT_EQ(oa.value().first, MsgType::kTxChallenge) << context;
  ASSERT_EQ(ob.value().first, MsgType::kTxChallenge) << context;
  auto ca = TxChallenge::deserialize(oa.value().second);
  auto cb = TxChallenge::deserialize(ob.value().second);
  ASSERT_TRUE(ca.ok() && cb.ok()) << context;
  EXPECT_EQ(ca.value().tx_id, cb.value().tx_id) << context;
  EXPECT_EQ(a.size(), b.size()) << context;
}

/// Zeroes the per-session secrets (nonces and the cached responses that
/// embed them) so states diverging ONLY in freshly-minted nonces compare
/// equal. Used after a lockstep replay that legitimately minted fresh
/// challenges on both sides (see expect_equivalent_reply); the strict
/// pre-replay fingerprint comparison has already pinned the *recovered*
/// nonces byte-exactly.
void strip_session_secrets(store::ShardState& state) {
  for (auto& entry : state.tx_sessions) {
    entry.session.nonce.fill(0);
    entry.session.response.fill(0);
  }
}

// -------------------------------------------------- restore equivalence

/// Randomized raw-frame workload against a durable SP: fresh submits,
/// confirms (accept and user-reject), byte-identical retransmits of
/// older frames, and the occasional confirm for a bogus tx id. Returns
/// every frame that received a reply.
struct Workload {
  std::vector<Bytes> frames;
  std::int64_t now_ns = 0;
};

Workload run_workload(sp::ServiceProvider& sp, std::mt19937_64& rng,
                      std::size_t frame_count) {
  Workload w;
  std::map<std::string, std::uint64_t> open_tx;
  for (std::size_t i = 0; i < frame_count; ++i) {
    w.now_ns += static_cast<std::int64_t>(rng() % 5'000'000);
    const std::string client = "prop-client-" + std::to_string(rng() % 6);
    Bytes frame;
    const std::uint64_t pick = rng() % 100;
    if (pick < 45 || w.frames.empty()) {
      frame = submit_frame(client, "pay " + std::to_string(rng() % 1000));
    } else if (pick < 70 && !open_tx.empty()) {
      auto it = open_tx.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng() % open_tx.size()));
      frame = confirm_frame(it->first, it->second,
                            rng() % 5 == 0 ? Verdict::kRejected
                                           : Verdict::kConfirmed);
      open_tx.erase(it);
    } else if (pick < 80) {
      // A confirm for a tx id nobody issued: rejected, never journaled.
      frame = confirm_frame(client, 0xdead0000 + rng() % 100);
    } else {
      // Byte-identical retransmission of an arbitrary earlier frame.
      frame = w.frames[rng() % w.frames.size()];
    }
    const Bytes reply = sp.handle_frame(frame, SimTime{w.now_ns});
    if (auto opened = core::open_envelope(reply);
        opened.ok() && opened.value().first == MsgType::kTxChallenge) {
      auto challenge = TxChallenge::deserialize(opened.value().second);
      if (challenge.ok()) open_tx[client] = challenge.value().tx_id;
    }
    w.frames.push_back(std::move(frame));
  }
  return w;
}

TEST(RestoreEquivalence, CleanKillRestoreMatchesThePreCrashSp) {
  // Property: across randomized workloads, an SP rebuilt from
  // snapshot+journal answers every retransmit byte-identically to the
  // SP that wrote them, and exports identical handoff state.
  std::mt19937_64 rng(chaos_seed());
  for (int trial = 0; trial < 5; ++trial) {
    MemoryBackend backend;
    DurableLogConfig lc;
    lc.backend = &backend;
    // Odd trials compact aggressively so recovery crosses snapshot
    // boundaries, not just journal replay.
    lc.compact_journal_bytes = (trial % 2 != 0) ? 4096 : 0;

    sp::SpConfig base;
    base.require_trusted_path = false;
    base.seed = bytes_of("restore-prop-" + std::to_string(trial));

    DurableLog log_a(lc);
    sp::SpConfig cfg_a = base;
    cfg_a.durable = &log_a;
    sp::ServiceProvider sp_a(cfg_a);
    Workload w = run_workload(sp_a, rng, 60 + rng() % 80);

    // Clean kill: the process dies between frames; a successor recovers
    // from the same backend.
    DurableLog log_b(lc);
    sp::SpConfig cfg_b = base;
    cfg_b.durable = &log_b;
    sp::ServiceProvider sp_b(cfg_b);

    EXPECT_EQ(state_fingerprint(sp_b), state_fingerprint(sp_a))
        << "trial " << trial;

    // Every recorded frame replays equivalently on both -- cached
    // replies byte-for-byte, re-executions in lockstep.
    for (const Bytes& frame : w.frames) {
      const Bytes a = sp_a.handle_frame(frame, SimTime{w.now_ns});
      const Bytes b = sp_b.handle_frame(frame, SimTime{w.now_ns});
      expect_equivalent_reply(a, b, "clean-kill trial " +
                                        std::to_string(trial));
    }

    // And what they would hand to a rebalance is the same state (nonces
    // stripped: the replay above legitimately minted fresh ones on each
    // side; the recovered nonces were compared byte-exactly before it).
    const auto everything = [](const proto::SessionTable::Key&) {
      return true;
    };
    const auto stripped = [](store::ShardState state) {
      state.source_now_ns = 0;
      strip_session_secrets(state);
      return store::serialize_shard_state(state);
    };
    EXPECT_EQ(stripped(sp_b.extract_for_handoff(everything)),
              stripped(sp_a.extract_for_handoff(everything)))
        << "trial " << trial;
  }
}

TEST(RestoreEquivalence, TornTailRestoreMatchesAReplayOfTheAckedPrefix) {
  // Property: kill the SP *mid-append* at a random journal offset. The
  // torn frame never released a reply, so recovery must equal a fresh
  // SP fed exactly the frames that were answered -- nothing more (no
  // half-applied frame), nothing less (every acked frame durable).
  std::mt19937_64 rng(chaos_seed() ^ 0x70aall);
  for (int trial = 0; trial < 5; ++trial) {
    MemoryBackend backend;
    DurableLogConfig lc;
    lc.backend = &backend;
    lc.compact_journal_bytes = 0;  // keep the whole history in the journal

    sp::SpConfig base;
    base.require_trusted_path = false;
    base.seed = bytes_of("torn-prop-" + std::to_string(trial));

    DurableLog log_a(lc);
    sp::SpConfig cfg_a = base;
    cfg_a.durable = &log_a;
    sp::ServiceProvider sp_a(cfg_a);

    // Warm up, then arm a crash a short random distance into the
    // future journal and drive frames until the append dies.
    std::mt19937_64 workload_rng(0xbeef0000 + trial);
    Workload w = run_workload(sp_a, workload_rng, 30);
    backend.crash_at_bytes(backend.appended_total() + 1 + rng() % 900);

    std::vector<Bytes> replied = w.frames;
    std::int64_t now_ns = w.now_ns;
    std::map<std::string, std::uint64_t> open_tx;
    bool crashed = false;
    for (int i = 0; i < 200 && !crashed; ++i) {
      now_ns += static_cast<std::int64_t>(workload_rng() % 5'000'000);
      const std::string client =
          "prop-client-" + std::to_string(workload_rng() % 6);
      Bytes frame;
      if (workload_rng() % 2 == 0 || open_tx.empty()) {
        frame = submit_frame(client, "pay " + std::to_string(i));
      } else {
        auto it = open_tx.begin();
        frame = confirm_frame(it->first, it->second);
        open_tx.erase(it);
      }
      try {
        const Bytes reply = sp_a.handle_frame(frame, SimTime{now_ns});
        if (auto opened = core::open_envelope(reply);
            opened.ok() && opened.value().first == MsgType::kTxChallenge) {
          auto challenge = TxChallenge::deserialize(opened.value().second);
          if (challenge.ok()) open_tx[client] = challenge.value().tx_id;
        }
        replied.push_back(frame);
      } catch (const CrashInjected&) {
        crashed = true;  // this frame was never acked
      }
    }
    ASSERT_TRUE(crashed) << "trial " << trial
                         << ": crash point never reached";

    // Successor recovers the torn journal...
    backend.clear_crash_point();
    DurableLog log_b(lc);
    sp::SpConfig cfg_b = base;
    cfg_b.durable = &log_b;
    sp::ServiceProvider sp_b(cfg_b);

    // ...and must equal a fresh SP that processed exactly the acked
    // frames. The oracle gets its own empty log: construction-time
    // recovery reseeds the DRBG with "sp-recovery:1:", exactly like
    // sp_a's empty-journal start, so both mint identical nonces.
    MemoryBackend oracle_backend;
    DurableLogConfig oracle_lc;
    oracle_lc.backend = &oracle_backend;
    oracle_lc.compact_journal_bytes = 0;
    DurableLog oracle_log(oracle_lc);
    sp::SpConfig cfg_c = base;
    cfg_c.durable = &oracle_log;
    sp::ServiceProvider oracle(cfg_c);
    {
      std::mt19937_64 replay_rng(0xbeef0000 + trial);
      Workload replayed = run_workload(oracle, replay_rng, 30);
      ASSERT_EQ(replayed.frames.size(), w.frames.size());
      for (std::size_t i = replayed.frames.size(); i < replied.size(); ++i) {
        // now values replay exactly: same rng, same consumption order.
        replayed.now_ns +=
            static_cast<std::int64_t>(replay_rng() % 5'000'000);
        replay_rng();  // the client pick
        replay_rng();  // the action pick
        oracle.handle_frame(replied[i], SimTime{replayed.now_ns});
      }
    }

    EXPECT_EQ(state_fingerprint(sp_b), state_fingerprint(oracle))
        << "trial " << trial;
    for (const Bytes& frame : replied) {
      const Bytes b = sp_b.handle_frame(frame, SimTime{now_ns});
      const Bytes o = oracle.handle_frame(frame, SimTime{now_ns});
      expect_equivalent_reply(b, o,
                              "torn-tail trial " + std::to_string(trial));
    }
  }
}

TEST(RestoreEquivalence, EnrollmentSurvivesCrashAndNewTransactionsVerify) {
  // Full-stack variant: real TPM enrollment, then a crash. The
  // recovered SP must verify *fresh* confirmation signatures against
  // the attestation keys it recovered from the journal -- key blobs
  // round-tripped through serialize/deserialize, verify contexts
  // rebuilt.
  sp::FleetConfig fleet_config;
  fleet_config.num_clients = 2;
  fleet_config.seed = bytes_of("crash-enroll");
  fleet_config.tpm_key_bits = 768;
  fleet_config.client_key_bits = 768;
  sp::Fleet fleet(fleet_config);

  MemoryBackend backend;
  DurableLogConfig lc;
  lc.backend = &backend;

  DurableLog log_a(lc);
  sp::SpConfig cfg_a = fleet.sp_config();
  cfg_a.durable = &log_a;
  auto sp_a = std::make_unique<sp::ServiceProvider>(cfg_a);
  fleet.route_frames_to([&sp_a](const std::string&, BytesView frame) {
    return sp_a->handle_frame(frame);
  });

  std::vector<std::unique_ptr<pal::HumanAgent>> users;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    auto agent = std::make_unique<pal::HumanAgent>(
        devices::HumanModel(devices::HumanParams{}, SimRng(7000 + i)), "");
    fleet.client(i).set_user_agent(agent.get());
    users.push_back(std::move(agent));
  }
  ASSERT_EQ(fleet.enroll_all(), fleet.size());
  users[0]->set_intended_summary("pay before crash");
  auto before = fleet.client(0).submit_transaction("pay before crash",
                                                   bytes_of("order 1"));
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before.value().accepted);

  // Crash. The successor recovers both enrollments and the settled tx.
  sp_a.reset();
  DurableLog log_b(lc);
  sp::SpConfig cfg_b = fleet.sp_config();
  cfg_b.durable = &log_b;
  sp::ServiceProvider sp_b(cfg_b);
  fleet.route_frames_to([&sp_b](const std::string&, BytesView frame) {
    return sp_b.handle_frame(frame);
  });
  EXPECT_EQ(sp_b.stats().enrolled, fleet.size());
  EXPECT_EQ(sp_b.stats().tx_accepted, 1u);

  // Fresh transactions from both clients verify against recovered keys
  // (and the reseeded nonce stream issues challenges that still work).
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const std::string summary = "pay after crash " + std::to_string(i);
    users[i]->set_intended_summary(summary);
    auto outcome =
        fleet.client(i).submit_transaction(summary, bytes_of("order 2"));
    ASSERT_TRUE(outcome.ok()) << fleet.client_id(i) << ": "
                              << outcome.error().message;
    EXPECT_TRUE(outcome.value().accepted) << fleet.client_id(i);
  }
  EXPECT_EQ(sp_b.stats().tx_accepted, 1u + fleet.size());
}

// ----------------------------------------------------------- svc layer

TEST(CrashedService, InjectedCrashFlipsToShutdownAndSuccessorReplays) {
  MemoryBackend backend;
  DurableLogConfig lc;
  lc.backend = &backend;

  svc::SvcConfig config;
  config.sp.require_trusted_path = false;

  DurableLog log_a(lc);
  config.sp.durable = &log_a;
  Bytes confirm;
  Bytes settled_reply;
  {
    svc::VerifierService service(config);
    service.start();
    EXPECT_FALSE(service.crashed());
    const std::string id = "svc-crash-client";
    const auto challenge = service.call(submit_frame(id, "pay 1"));
    ASSERT_EQ(challenge.status, svc::SvcStatus::kOk);
    confirm = confirm_frame(id, challenge_tx_id(challenge.frame));
    const auto settled = service.call(confirm);
    ASSERT_EQ(settled.status, svc::SvcStatus::kOk);
    ASSERT_TRUE(result_accepted(settled.frame));
    settled_reply = settled.frame;

    // Die on the next journal append: the frame gets kShutdown (it was
    // never acked), the service latches crashed mode, and everything
    // after is refused without touching the poisoned SP.
    backend.crash_at_bytes(backend.appended_total() + 7);
    const auto dead = service.call(submit_frame(id, "pay 2"));
    EXPECT_EQ(dead.status, svc::SvcStatus::kShutdown);
    EXPECT_TRUE(service.crashed());
    EXPECT_EQ(service.call(submit_frame(id, "pay 3")).status,
              svc::SvcStatus::kShutdown);
    service.drain();
  }

  // The replacement recovers from the same log: the settled confirm
  // replays byte-identically, and the torn submit was never acked so
  // its retry executes fresh.
  backend.clear_crash_point();
  DurableLog log_b(lc);
  config.sp.durable = &log_b;
  svc::VerifierService successor(config);
  successor.start();
  EXPECT_FALSE(successor.crashed());
  const auto replay = successor.call(confirm);
  ASSERT_EQ(replay.status, svc::SvcStatus::kOk);
  EXPECT_EQ(replay.frame, settled_reply);
  EXPECT_EQ(successor.stats().tx_accepted, 1u);  // replayed, not re-run

  const auto retry = successor.call(submit_frame("svc-crash-client", "pay 2"));
  EXPECT_EQ(retry.status, svc::SvcStatus::kOk);
  successor.drain();
}

TEST(CrashedService, StorageIoErrorFailsTheBatchAndTheProcessSurvives) {
  // A real disk error (FileBackend throws std::runtime_error when write
  // or fdatasync fails, e.g. ENOSPC) takes the injected-crash path: the
  // batch's promises resolve kShutdown, the service latches crashed
  // mode, and the error never escapes the worker thread to terminate
  // the process. The fsync is not retried; a restart rebuilds the shard.
  ProbeBackend backend;
  DurableLogConfig lc;
  lc.backend = &backend;

  svc::SvcConfig config;
  config.sp.require_trusted_path = false;

  DurableLog log_a(lc);
  config.sp.durable = &log_a;
  const std::string id = "svc-enospc-client";
  Bytes confirm;
  {
    svc::VerifierService service(config);
    service.start();
    const auto challenge = service.call(submit_frame(id, "pay 1"));
    ASSERT_EQ(challenge.status, svc::SvcStatus::kOk);
    confirm = confirm_frame(id, challenge_tx_id(challenge.frame));

    backend.set_failing(true);
    std::vector<std::future<svc::SvcResponse>> replies;
    replies.push_back(service.submit(confirm));
    for (int i = 2; i < 6; ++i) {
      replies.push_back(
          service.submit(submit_frame(id, "pay " + std::to_string(i))));
    }
    for (auto& reply : replies) {
      EXPECT_EQ(reply.get().status, svc::SvcStatus::kShutdown);
    }
    EXPECT_TRUE(service.crashed());
    EXPECT_EQ(service.call(confirm).status, svc::SvcStatus::kShutdown);
    service.drain();
  }

  // Once the disk is healthy again, a successor recovers the acked submit
  // and settles the confirm that never got a reply.
  backend.set_failing(false);
  DurableLog log_b(lc);
  config.sp.durable = &log_b;
  svc::VerifierService successor(config);
  successor.start();
  const auto settled = successor.call(confirm);
  ASSERT_EQ(settled.status, svc::SvcStatus::kOk);
  EXPECT_TRUE(result_accepted(settled.frame));
  EXPECT_EQ(successor.stats().tx_accepted, 1u);
  successor.drain();
}

// --------------------------------------------------------- group commit

TEST(GroupCommit, BatchedJournalIsByteIdenticalWithOneAppendPerCall) {
  // One frame stream through a durable SP twice: frame by frame with
  // handle_frame, then in drained batches with handle_frame_batch. Group
  // commit changes how many backend appends carry the records, never
  // which bytes land: the journals match byte for byte, and every call
  // that journaled at least one record made exactly one append.
  DurableLogConfig lc;
  lc.compact_journal_bytes = 0;
  sp::SpConfig cfg;
  cfg.require_trusted_path = false;
  cfg.seed = bytes_of("group-commit-identity");

  ProbeBackend seq_backend;
  lc.backend = &seq_backend;
  DurableLog seq_log(lc);
  cfg.durable = &seq_log;
  sp::ServiceProvider seq_sp(cfg);

  ProbeBackend batch_backend;
  lc.backend = &batch_backend;
  DurableLog batch_log(lc);
  cfg.durable = &batch_log;
  sp::ServiceProvider batch_sp(cfg);

  // Round r confirms what round r-1 opened (every 4th by a user reject),
  // repeats its first confirm inside the batch (answered from the cached
  // reply, never journaled twice), confirms a tx id nobody issued, opens
  // fresh transactions, and retransmits an earlier round's frame
  // (answered from cache, never journaled). The frame-by-frame SP's
  // replies name the tx ids; the batched SP has the same seed, so it
  // issues the same.
  std::vector<std::vector<Bytes>> rounds;
  std::vector<std::vector<Bytes>> seq_replies;
  std::vector<std::pair<std::string, std::uint64_t>> open;
  for (int r = 0; r < 12; ++r) {
    std::vector<Bytes> round;
    for (std::size_t i = 0; i < open.size(); ++i) {
      round.push_back(confirm_frame(
          open[i].first, open[i].second,
          i % 4 == 3 ? Verdict::kRejected : Verdict::kConfirmed));
    }
    if (!open.empty()) round.push_back(round.front());
    round.push_back(confirm_frame("gc-client-0", 0xdead0000 + r));
    if (r > 0) round.push_back(rounds.back().front());
    const std::size_t first_submit = round.size();
    std::vector<std::string> submitters;
    for (int c = 0; c <= r % 5; ++c) {
      submitters.push_back("gc-client-" + std::to_string(c));
      round.push_back(submit_frame(submitters.back(),
                                   "pay " + std::to_string(r) + "/" +
                                       std::to_string(c)));
    }

    open.clear();
    std::vector<Bytes> replies;
    for (std::size_t f = 0; f < round.size(); ++f) {
      const std::uint64_t records = seq_log.records_appended();
      const std::size_t appends = seq_backend.appends();
      replies.push_back(seq_sp.handle_frame(round[f], SimTime{r * 1'000'000}));
      const bool journaled = seq_log.records_appended() > records;
      EXPECT_EQ(seq_backend.appends() - appends, journaled ? 1u : 0u)
          << "round " << r << " frame " << f;
      if (f >= first_submit) {
        open.emplace_back(submitters[f - first_submit],
                          challenge_tx_id(replies.back()));
      }
    }
    rounds.push_back(std::move(round));
    seq_replies.push_back(std::move(replies));
  }

  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const std::uint64_t records = batch_log.records_appended();
    const std::size_t appends = batch_backend.appends();
    const std::vector<BytesView> frames(rounds[r].begin(), rounds[r].end());
    const std::vector<Bytes> replies = batch_sp.handle_frame_batch(
        frames, SimTime{static_cast<std::int64_t>(r) * 1'000'000});
    EXPECT_EQ(replies, seq_replies[r]) << "round " << r;
    // Every round opens transactions, so every batch journals.
    EXPECT_GT(batch_log.records_appended(), records) << "round " << r;
    EXPECT_EQ(batch_backend.appends() - appends, 1u) << "round " << r;
  }
  EXPECT_LT(batch_backend.appends(), seq_backend.appends());

  ASSERT_FALSE(seq_backend.read_journal().empty());
  EXPECT_EQ(batch_backend.read_journal(), seq_backend.read_journal());
  EXPECT_EQ(batch_log.records_appended(), seq_log.records_appended());
  EXPECT_EQ(batch_log.next_seq(), seq_log.next_seq());
}

TEST(GroupCommit, TornBatchFailsEveryReplyAndRetransmitsSettleOnce) {
  // A drained batch of 8 TxConfirms and 1 TxSubmit commits as ONE
  // append. Tear it in the middle of its 3rd record: no reply of the
  // batch may be released, recovery keeps exactly the two whole records
  // before the tear, and the clients' retransmits then settle every
  // confirm exactly once.
  ProbeBackend* probe = nullptr;
  cluster::ClusterConfig cc;
  cc.num_shards = 1;
  cc.svc.max_batch = 16;
  cc.svc.sp.require_trusted_path = false;
  cc.compact_journal_bytes = 0;  // keep the whole history in the journal
  cc.durable_backend_factory =
      [&probe](std::uint32_t) -> std::unique_ptr<store::StorageBackend> {
    auto backend = std::make_unique<ProbeBackend>();
    probe = backend.get();
    return backend;
  };
  cluster::VerifierCluster cluster(cc);
  cluster.start();
  ASSERT_NE(probe, nullptr);

  const auto client = [](int i) {
    return "gc-batch-client-" + std::to_string(i);
  };
  std::vector<std::uint64_t> tx;
  for (int i = 0; i < 8; ++i) {
    const auto challenge = cluster.call(
        client(i), submit_frame(client(i), "pay " + std::to_string(i)));
    ASSERT_EQ(challenge.status, svc::SvcStatus::kOk);
    tx.push_back(challenge_tx_id(challenge.frame));
  }
  // One acked confirm outside the batch; it also measures the size of a
  // settle record. The batch's confirms settle the same way (same nonce
  // length, same cached-reply length), so their records are this size.
  const std::string warm = "gc-batch-warm";
  const auto warm_challenge = cluster.call(warm, submit_frame(warm, "warm"));
  ASSERT_EQ(warm_challenge.status, svc::SvcStatus::kOk);
  const std::uint64_t before_settle = probe->appended_total();
  const auto warm_result = cluster.call(
      warm, confirm_frame(warm, challenge_tx_id(warm_challenge.frame)));
  ASSERT_EQ(warm_result.status, svc::SvcStatus::kOk);
  ASSERT_TRUE(result_accepted(warm_result.frame));
  const std::uint64_t settle_bytes = probe->appended_total() - before_settle;
  std::uint64_t acked_accepts = 1;

  // Park the worker inside one more commit, so the whole batch is queued
  // behind it and drains as one handle_frame_batch call.
  probe->hold_next_append();
  const std::string blocker = "gc-batch-blocker";
  auto blocked = cluster.submit(blocker, submit_frame(blocker, "blocker"));
  probe->wait_until_held();

  std::vector<std::string> ids;
  std::vector<Bytes> batch;
  for (int i = 0; i < 8; ++i) {
    if (i == 4) {
      ids.push_back(client(8));
      batch.push_back(submit_frame(client(8), "pay inside the batch"));
    }
    ids.push_back(client(i));
    batch.push_back(confirm_frame(client(i), tx[i]));
  }
  std::vector<std::future<svc::SvcResponse>> replies;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    replies.push_back(cluster.submit(ids[i], batch[i]));
  }
  while (cluster.shard_service(0).queued() < batch.size()) {
    std::this_thread::yield();
  }
  const std::size_t records_before =
      store::decode_journal(probe->read_journal()).records.size();
  cluster.kill_shard(0, probe->appended_total() + 2 * settle_bytes +
                            settle_bytes / 2);
  probe->release();

  EXPECT_EQ(blocked.get().status, svc::SvcStatus::kOk);
  for (auto& reply : replies) {
    EXPECT_EQ(reply.get().status, svc::SvcStatus::kShutdown);
  }
  EXPECT_TRUE(cluster.shard_crashed(0));
  const store::JournalDecode torn =
      store::decode_journal(probe->read_journal());
  EXPECT_EQ(torn.records.size(), records_before + 2);
  EXPECT_TRUE(torn.truncated_tail);

  // Recovery folds in exactly the whole records: the settles of the first
  // two confirms are durable (though never acked); the torn third is not.
  cluster.restart_shard(0);
  obs::Registry& metrics = cluster.shard_service(0).metrics();
  EXPECT_EQ(metrics.counter("sp.recovery.replayed_records").value(),
            records_before + 2);
  EXPECT_EQ(metrics.counter("sp.recovery.truncated_tail").value(),
            settle_bytes / 2);
  EXPECT_EQ(cluster.stats().tx_accepted, acked_accepts + 2);

  // The clients retransmit: the two durable confirms answer from their
  // cached replies, the rest execute now. A second retransmit of every
  // frame changes nothing.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto reply = cluster.call(ids[i], batch[i]);
      ASSERT_EQ(reply.status, svc::SvcStatus::kOk) << "frame " << i;
      if (i == 4) continue;  // the TxSubmit
      EXPECT_TRUE(result_accepted(reply.frame)) << "frame " << i;
      if (pass == 0) ++acked_accepts;
    }
    EXPECT_EQ(cluster.stats().tx_accepted, acked_accepts) << "pass " << pass;
  }
  EXPECT_EQ(acked_accepts, 9u);
  cluster.drain();
}

// -------------------------------------------------------- cluster chaos

TEST(CrashChaos, RestartPreservesAcceptCountsAcrossGenerations) {
  // Focused fault-free cousin of the big run: settled counts must ride
  // the journal across several kill/restart generations of one shard.
  cluster::ClusterConfig cc;
  cc.num_shards = 2;
  cc.svc.sp.require_trusted_path = false;
  cc.durable_backend_factory = [](std::uint32_t) {
    return std::make_unique<MemoryBackend>();
  };
  cc.compact_journal_bytes = 8 * 1024;
  cluster::VerifierCluster cluster(cc);
  cluster.start();

  const std::string id = "count-client";
  const std::uint32_t home = cluster.shard_for(id);
  std::uint64_t accepted = 0;
  for (int generation = 0; generation < 4; ++generation) {
    for (int i = 0; i < 25; ++i) {
      const auto challenge =
          cluster.call(id, submit_frame(id, "pay g" +
                                                std::to_string(generation) +
                                                " n" + std::to_string(i)));
      ASSERT_EQ(challenge.status, svc::SvcStatus::kOk);
      const auto result = cluster.call(
          id, confirm_frame(id, challenge_tx_id(challenge.frame)));
      ASSERT_EQ(result.status, svc::SvcStatus::kOk);
      ASSERT_TRUE(result_accepted(result.frame));
      ++accepted;
    }
    EXPECT_EQ(cluster.stats().tx_accepted, accepted)
        << "generation " << generation << " pre-restart";
    // Clean-ish kill: arm just past the current offset, poke the shard
    // until it dies, restart, and the count must survive.
    cluster.kill_shard(home,
                       cluster.shard_backend(home).appended_total() + 1);
    while (!cluster.shard_crashed(home)) {
      (void)cluster.call(id, submit_frame(id, "poke g" +
                                                  std::to_string(generation)));
    }
    cluster.restart_shard(home);
    EXPECT_EQ(cluster.stats().tx_accepted, accepted)
        << "generation " << generation << " post-restart";
  }
  EXPECT_EQ(cluster.shard_restarts(), 4u);
  cluster.drain();
}

TEST(CrashChaos, EnrolledKeysSurviveAHandoffAndARestartOfEveryShard) {
  // Attestation keys that moved in a durable handoff must come back from
  // their new owner's own log: a mixed TPM 1.2/2.0 fleet enrolls and
  // confirms, a shard joins (the cluster checkpoints every member after
  // the move), then every member is rebuilt from its snapshot + journal.
  // Each client must still confirm -- verified against the key its
  // current owner recovered -- and the books must balance: every client
  // enrolled exactly once, every acked accept counted exactly once.
  sp::FleetConfig fleet_config;
  fleet_config.num_clients = 8;
  fleet_config.seed = bytes_of("crash-handoff");
  fleet_config.tpm_key_bits = 768;
  fleet_config.client_key_bits = 768;
  fleet_config.backend_mix = {tpm::QuoteFormat::kTpm12,
                              tpm::QuoteFormat::kTpm2};
  sp::Fleet fleet(fleet_config);

  cluster::ClusterConfig cc;
  cc.num_shards = 2;
  cc.svc.sp = fleet.sp_config();
  cc.durable_backend_factory = [](std::uint32_t) {
    return std::make_unique<MemoryBackend>();
  };
  cluster::VerifierCluster cluster(cc);
  cluster.start();
  fleet.route_frames_to([&cluster](const std::string& id, BytesView frame) {
    return cluster.call(id, frame).frame;
  });

  std::vector<std::unique_ptr<pal::HumanAgent>> users;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    auto agent = std::make_unique<pal::HumanAgent>(
        devices::HumanModel(devices::HumanParams{}, SimRng(7100 + i)), "");
    fleet.client(i).set_user_agent(agent.get());
    users.push_back(std::move(agent));
  }
  ASSERT_EQ(fleet.enroll_all(), fleet.size());

  std::uint64_t accepts = 0;
  const auto confirm_everyone = [&](const std::string& when) {
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      const std::string summary = "pay " + when + " " + std::to_string(i);
      users[i]->set_intended_summary(summary);
      auto outcome =
          fleet.client(i).submit_transaction(summary, bytes_of(summary));
      ASSERT_TRUE(outcome.ok()) << fleet.client_id(i) << " " << when << ": "
                                << outcome.error().message;
      ASSERT_TRUE(outcome.value().accepted) << fleet.client_id(i) << " "
                                            << when;
      ++accepts;
    }
  };
  const auto expect_books = [&](const std::string& when) {
    const sp::SpStats stats = cluster.stats();
    EXPECT_EQ(stats.enrolled, fleet.size()) << when;
    EXPECT_EQ(stats.tx_accepted, accepts) << when;
    std::size_t resident = 0;
    for (const std::uint32_t id : cluster.shard_ids()) {
      resident += cluster.shard_sp(id).enrolled_count();
    }
    EXPECT_EQ(resident, fleet.size()) << when;
  };

  confirm_everyone("before the join");
  cluster.add_shard();
  ASSERT_GT(cluster.remapped_keys(), 0u);
  expect_books("after the join");

  const std::vector<std::uint32_t> ids = cluster.shard_ids();
  for (const std::uint32_t id : ids) cluster.restart_shard(id);
  EXPECT_EQ(cluster.shard_restarts(), ids.size());
  expect_books("after every restart");

  confirm_everyone("after every restart");
  EXPECT_EQ(accepts, 2 * fleet.size());
  expect_books("at the end");
  cluster.drain();
}

TEST(CrashChaos, TenThousandTxExactlyOnceThroughDyingShards) {
  // The acceptance bar: 10k transactions through a 4-shard durable
  // cluster behind a lossy "network" (~26% of deliveries dropped or
  // duplicated), with shards killed at random journal offsets (torn
  // writes included) and restarted from their journals throughout, plus
  // one live shard join mid-run. The client-side and cluster-side
  // accept counts must agree exactly: retransmits, duplicate
  // deliveries, rebalances and process deaths may never double-execute
  // or lose a settled payment.
  const std::uint64_t seed = chaos_seed();
  std::mt19937_64 rng(seed ^ 0xc4a54ull);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  cluster::ClusterConfig cc;
  cc.num_shards = 4;
  cc.svc.queue_depth = 64;
  cc.svc.default_deadline = std::chrono::milliseconds(2000);
  cc.svc.sp.require_trusted_path = false;
  cc.durable_backend_factory = [](std::uint32_t) {
    return std::make_unique<MemoryBackend>();
  };
  // Aggressive compaction so the run crosses many snapshot cycles and
  // kills land in the compaction crash window too.
  cc.compact_journal_bytes = 128 * 1024;
  cluster::VerifierCluster cluster(cc);
  cluster.start();

  std::uint64_t kills_armed = 0;
  const auto arm_random_kill = [&] {
    const auto ids = cluster.shard_ids();
    const std::uint32_t victim =
        ids[static_cast<std::size_t>(rng() % ids.size())];
    // A short random distance into the shard's journal future: the
    // crossing append keeps a torn prefix -- mid-record deaths by
    // construction.
    cluster.kill_shard(victim, cluster.shard_backend(victim).appended_total() +
                                   1 + rng() % 900);
    ++kills_armed;
  };
  const auto restart_crashed = [&] {
    for (const std::uint32_t id : cluster.shard_ids()) {
      if (cluster.shard_crashed(id)) cluster.restart_shard(id);
    }
  };

  std::uint64_t drops = 0;
  std::uint64_t dups = 0;
  std::uint64_t give_ups = 0;
  // Lossy delivery: drop = the frame never arrives (client times out
  // and retries); duplicate = the same frame lands twice (the second
  // copy must be answered from settled state, never re-executed). A
  // kShutdown reply is a dead shard: restart it and retry -- exactly
  // what a deployed client's retry loop plus an operator's supervisor
  // would do.
  const auto deliver = [&](const std::string& id, const Bytes& frame) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const double p = coin(rng);
      if (p < 0.13) {
        ++drops;
        continue;
      }
      const auto response = cluster.call(id, frame);
      if (p < 0.21) {
        ++dups;
        (void)cluster.call(id, frame);
      }
      if (response.status == svc::SvcStatus::kOk) return response.frame;
      restart_crashed();
    }
    ++give_ups;
    return Bytes{};
  };

  const std::size_t kClients = 16;
  const std::size_t kRounds = 625;  // 16 * 625 = 10,000 transactions
  std::uint64_t client_accepts = 0;
  std::uint64_t next_kill = 20 + rng() % 30;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t c = 0; c < kClients; ++c) {
      const std::string id = "crash-client-" + std::to_string(c);
      const Bytes challenge =
          deliver(id, submit_frame(id, "pay " + std::to_string(round)));
      ASSERT_FALSE(challenge.empty()) << id << " round " << round;
      const Bytes result =
          deliver(id, confirm_frame(id, challenge_tx_id(challenge)));
      ASSERT_FALSE(result.empty()) << id << " round " << round;
      if (result_accepted(result)) ++client_accepts;
      if (--next_kill == 0) {
        arm_random_kill();
        next_kill = 20 + rng() % 30;
      }
    }
    if (round == kRounds / 2) {
      // Live join with kills in flight: handoff + durability compose.
      cluster.add_shard();
    }
  }
  restart_crashed();

  EXPECT_EQ(give_ups, 0u);
  EXPECT_EQ(client_accepts, static_cast<std::uint64_t>(kClients * kRounds));
  // Zero double-execution, zero loss: what the clients counted is
  // exactly what the cluster settled -- across drops, duplicates, a
  // rebalance and every process death.
  EXPECT_EQ(cluster.stats().tx_accepted, client_accepts);
  EXPECT_GT(kills_armed, 100u);
  EXPECT_GT(cluster.shard_restarts(), 20u);
  EXPECT_GT(drops, 1000u);
  EXPECT_GT(dups, 500u);
  std::cout << "[crash-chaos] " << client_accepts << " accepts, "
            << kills_armed << " kills armed, " << cluster.shard_restarts()
            << " restarts, " << drops << " drops, " << dups << " dups"
            << std::endl;
  cluster.drain();
}

}  // namespace
}  // namespace tp
