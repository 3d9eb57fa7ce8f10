// Service provider: the remote party the trusted path protects.
//
// The SP trusts two things only: the Privacy CA's key and the published
// golden measurement of the trusted-path PAL. From those it derives,
// per client, "this public key was generated inside the genuine PAL on a
// genuine TPM" (enrollment) and, per transaction, "a human at that
// machine confirmed exactly this transaction" (signature over the
// one-time challenge). Everything between -- the OS, the browser, the
// network -- is assumed hostile.
//
// Session lifecycle: the SP is a thin imperative shell over the
// protocol-session layer (src/proto). Every half-open exchange lives in
// a bounded, deadline-aware proto::SessionTable (one for enrollment
// keyed by client id, one for confirmation keyed by tx id); every
// DECISION about a message -- gate, pre-signature screen, settle,
// retransmission replay -- is a pure function in proto/sp_core.h,
// driven here against real tables and real crypto
// (proto::CryptoPort -> sp::AttestationCryptoPort) and driven by the
// model checker (src/model) against symbolic state. Legal transitions
// come from proto::step, the same pure transition function the client
// drives, so the two sides cannot disagree about the lifecycle. Rejects
// are typed (proto::RejectCode), counted in a fixed per-code counter
// array -- no per-reject heap allocation on the hot path -- and echoed
// on the wire.
//
// Entry point: the protocol exchange is the SP's only way in. Every
// message arrives as a frame through handle_frame / handle_frame_batch,
// so every mutation passes the response cache, SubmitDedup and (on a
// durable SP) the write-ahead journal; the four per-message steps are
// private.
//
// Concurrency: one ServiceProvider is single-threaded by design (the
// session tables and replay cache have no interleavings to reason
// about). svc::VerifierService runs one behind one worker thread, and
// cluster::VerifierCluster shards clients across such services; only
// the metrics instruments underneath stats() are cross-thread safe.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/messages.h"
#include "core/trusted_path_pal.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "obs/metrics.h"
#include "proto/session_fsm.h"
#include "proto/session_table.h"
#include "proto/sp_core.h"
#include "sp/attestation_port.h"
#include "sp/replay_cache.h"
#include "store/shard_state.h"
#include "tpm/attestation.h"
#include "tpm/privacy_ca.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/sim_clock.h"

namespace tp::store {
class DurableLog;
}  // namespace tp::store

namespace tp::sp {

struct SpConfig {
  Bytes golden_pcr17;               // published PAL measurement
  crypto::RsaPublicKey ca_public;   // Privacy CA root
  Bytes seed = bytes_of("sp-seed"); // nonce generator seed

  /// Attestation policies this SP accepts, one per supported platform
  /// flavour (AMD SKINIT, Intel TXT, ...) and quote format (TPM 1.2 /
  /// 2.0 -- a policy only ever matches quotes of its own format). When
  /// empty, the SP falls back to the classic TPM 1.2
  /// {PCR 17} == golden_pcr17 policy; a deployment with 2.0 clients must
  /// publish kTpm2 policies explicitly.
  std::vector<core::AttestationPolicy> accepted_policies;

  /// Policy knob for the baseline experiments: when false the SP behaves
  /// like an unprotected 2011 web service -- any well-formed TxConfirm is
  /// executed without verification (the "no defence" row of F2).
  bool require_trusted_path = true;

  /// Bound on the defence-in-depth signature replay cache, in entries
  /// (~33 bytes each); the oldest entry is evicted FIFO once the cache is
  /// full. Keep this well above the expected number of in-flight
  /// transactions: the one-shot session table is the primary replay
  /// defence, so eviction only narrows the backstop, but a capacity below
  /// the in-flight window weakens defence in depth. 0 is clamped to 1.
  std::size_t replay_cache_capacity = 1 << 16;

  /// Bounds on the half-open session tables (memory is constant and
  /// capacity-proportional; the least-recently-begun session is evicted
  /// under pressure). Enrollment sessions are keyed by client id -- a
  /// client re-sending EnrollBegin recycles its one slot.
  std::size_t enroll_session_capacity = 1024;
  std::size_t tx_session_capacity = 4096;
  /// Deadline for a half-open session, measured on `clock` (or the
  /// manually-advanced timeline when clock == nullptr). <= 0 disables
  /// protocol-level expiry.
  SimDuration session_ttl = SimDuration::seconds(120);
  /// Timeline the session deadlines live on. nullptr -> the SP starts at
  /// t=0 and only moves via advance_time_to() (svc::VerifierService
  /// drives it from the same steady clock its queue deadlines use).
  const SimClock* clock = nullptr;

  /// Capacity hint for the enrolled-client map (pre-reserved so the
  /// steady-state hot path does not rehash).
  std::size_t expected_clients = 1024;

  /// First transaction id is tx_id_base + 1. Single-SP deployments leave
  /// this 0 (ids start at 1, the seed's behaviour). A cluster gives every
  /// shard a disjoint base so tx ids stay globally unique and a session
  /// moved by shard handoff can never collide with an id the destination
  /// issued itself.
  std::uint64_t tx_id_base = 0;

  /// Metrics registry the SP's counters and latency histograms live in
  /// (all named "sp.*"); nullptr -> the SP owns a private registry. A
  /// shared registry holds at most one SP: two would alias each other's
  /// counters.
  obs::Registry* metrics = nullptr;

  /// Write-ahead journal for crash consistency (src/store). When set, the
  /// constructor first RECOVERS: it folds the log's snapshot+journal into
  /// one ShardState and imports it (the same import_state a handoff
  /// uses), restores the cumulative accept and enrolled counters,
  /// publishes sp.recovery.* metrics, and reseeds the nonce stream so a
  /// restarted shard never reuses a pre-crash nonce. Afterwards every
  /// frame that mutates durable state stages exactly one record: a
  /// store::ShardState delta holding the session it cached its reply in
  /// plus the enrolled key, dedup row or replay digest it added, and the
  /// tx-id and accept counters. Each handle_frame / handle_frame_batch
  /// call commits its staged records in one backend append (one write +
  /// one fdatasync on FileBackend) BEFORE it returns any reply -- the
  /// write-ahead contract that makes an acked operation survive process
  /// death, paid once per call rather than once per record. The caller
  /// owns the log and its backend, and must not share one log between
  /// SPs.
  store::DurableLog* durable = nullptr;
};

/// Aggregated protocol outcomes (for the security experiments and the
/// serving runtime). Built purely from the registry's atomic counters --
/// no strings, no maps, no mutable caches.
struct SpStats {
  std::uint64_t enrolled = 0;
  std::uint64_t enroll_rejected = 0;
  std::uint64_t tx_accepted = 0;
  std::uint64_t tx_rejected = 0;
  /// Per-backend slices of `enrolled` / `tx_accepted`, indexed by
  /// tpm::quote_format_index (mixed-fleet observability).
  std::array<std::uint64_t, tpm::kNumQuoteFormats> enrolled_by_format{};
  std::array<std::uint64_t, tpm::kNumQuoteFormats> tx_accepted_by_format{};
  /// Rejects by typed code, indexed by proto::RejectCode.
  std::array<std::uint64_t, proto::kRejectCodeCount> rejects_by_code{};
  /// Session-table pressure events.
  std::uint64_t sessions_evicted = 0;
  std::uint64_t sessions_expired = 0;

  std::uint64_t enrolled_format(tpm::QuoteFormat f) const {
    return enrolled_by_format[tpm::quote_format_index(f)];
  }
  std::uint64_t tx_accepted_format(tpm::QuoteFormat f) const {
    return tx_accepted_by_format[tpm::quote_format_index(f)];
  }
  std::uint64_t rejects(proto::RejectCode code) const {
    return rejects_by_code[static_cast<std::size_t>(code)];
  }
  std::uint64_t total_rejects() const {
    std::uint64_t n = 0;
    for (const std::uint64_t v : rejects_by_code) n += v;
    return n;
  }

  /// Field-wise sum: how the svc and cluster layers total their shards.
  SpStats& operator+=(const SpStats& other) {
    enrolled += other.enrolled;
    enroll_rejected += other.enroll_rejected;
    tx_accepted += other.tx_accepted;
    tx_rejected += other.tx_rejected;
    for (std::size_t i = 0; i < tpm::kNumQuoteFormats; ++i) {
      enrolled_by_format[i] += other.enrolled_by_format[i];
      tx_accepted_by_format[i] += other.tx_accepted_by_format[i];
    }
    for (std::size_t i = 0; i < proto::kRejectCodeCount; ++i) {
      rejects_by_code[i] += other.rejects_by_code[i];
    }
    sessions_evicted += other.sessions_evicted;
    sessions_expired += other.sessions_expired;
    return *this;
  }

  void reset() { *this = SpStats{}; }
};

class ServiceProvider {
 public:
  /// Challenge nonce length in bytes; nonces live inline in the
  /// fixed-size session slots.
  static constexpr std::size_t kNonceLen = 20;
  static_assert(kNonceLen <= proto::SessionTable::kMaxNonceLen);

  explicit ServiceProvider(SpConfig config);

  /// Server loop entry: one request frame in, one response frame out.
  /// Malformed input yields a rejecting response, never a crash.
  ///
  /// Idempotent re-delivery: a settled session is held in its table --
  /// terminal state plus the serialized response -- until its original
  /// deadline, and a byte-identical retransmission of EnrollBegin /
  /// TxSubmit / EnrollComplete / TxConfirm is answered by replaying that
  /// response instead of reprocessing, so a duplicated or retried frame
  /// can never double-accept. A retransmission whose bytes differ from
  /// the settled original gets the typed kRetryMismatch reject.
  Bytes handle_frame(BytesView frame);
  /// Same, but first advances the SP's session timeline to `now` --
  /// the serving runtime passes its request clock down so in-queue
  /// expiry and protocol-level session expiry share one timeline.
  Bytes handle_frame(BytesView frame, SimTime now);

  /// Batched server loop entry: runs each frame through the same path
  /// as handle_frame, in order (byte-identical responses, identical
  /// final session/replay/counter state), then commits the whole call's
  /// journal records in one backend append before returning -- the
  /// group commit a svc worker's queue drain pays once per batch. The
  /// two entry points differ only in how many frames share one commit.
  std::vector<Bytes> handle_frame_batch(std::span<const BytesView> frames);
  std::vector<Bytes> handle_frame_batch(std::span<const BytesView> frames,
                                        SimTime now);

  bool is_enrolled(const std::string& client_id) const {
    return crypto_.is_enrolled(client_id);
  }

  /// Live size of the bounded signature replay cache (for tests and
  /// capacity monitoring).
  std::size_t replay_cache_size() const { return seen_signatures_.size(); }
  /// Heap bytes pinned by the replay cache — constant over the SP's
  /// lifetime regardless of traffic.
  std::size_t replay_cache_memory_bytes() const {
    return seen_signatures_.memory_bytes();
  }

  /// Live half-open sessions (enrollment + confirmation).
  std::size_t session_table_occupancy() const {
    return enroll_sessions_.size() + tx_sessions_.size();
  }
  /// Heap bytes pinned by both session tables — constant over the SP's
  /// lifetime regardless of traffic (the F7 boundedness assertion).
  std::size_t session_table_memory_bytes() const {
    return enroll_sessions_.memory_bytes() + tx_sessions_.memory_bytes();
  }
  std::uint64_t session_evictions() const {
    return enroll_sessions_.evictions() + tx_sessions_.evictions();
  }
  std::uint64_t session_expirations() const {
    return enroll_sessions_.expirations() + tx_sessions_.expirations();
  }

  /// Heap bytes pinned by the TxSubmit dedup map -- constant over the
  /// SP's lifetime (sized from tx_session_capacity at construction).
  std::size_t submit_dedup_memory_bytes() const {
    return submit_dedup_.capacity() * sizeof(SubmitDedup);
  }
  /// Responses replayed from cache for retransmitted begins (challenges)
  /// and completes (results).
  std::uint64_t replayed_challenges() const {
    return c_replayed_challenge_->value();
  }
  std::uint64_t replayed_results() const {
    return c_replayed_result_->value();
  }

  /// The SP's position on the session timeline.
  SimTime session_now() const {
    return config_.clock != nullptr ? config_.clock->now() : manual_now_;
  }
  /// Moves the manual session timeline forward (monotonic; ignored when
  /// the SP was configured with an external SimClock).
  void advance_time_to(SimTime now) {
    if (config_.clock == nullptr && now > manual_now_) manual_now_ = now;
  }

  /// Counter snapshot, by value, built from atomic counters only — safe
  /// while a worker thread drives this SP.
  SpStats stats() const;

  /// Zeroes this SP's counters/histograms so benches can take clean
  /// per-phase measurements.
  void reset_stats();

  /// The registry backing stats(); also carries the enroll/tx latency
  /// histograms ("sp.enroll_ns", "sp.tx_ns") and the session-table
  /// gauges ("sp.enroll_sessions", "sp.tx_sessions") plus eviction/expiry
  /// counters.
  obs::Registry& metrics() { return *registry_; }

  /// Clients with a cached verify context (completed enrollments still
  /// resident on this SP).
  std::size_t enrolled_count() const { return crypto_.enrolled_count(); }

  /// Heap bytes pinned by this SP: the bounded state (session tables,
  /// replay cache, submit-dedup map), which is constant over its
  /// lifetime, plus every enrolled client's id, key and verify context,
  /// which grows with the population (AttestationCryptoPort::
  /// enrolled_memory_bytes). The per-shard memory gauge the cluster
  /// publishes. Walks the enrolled map: read it quiesced.
  std::size_t memory_bytes() const {
    return session_table_memory_bytes() + replay_cache_memory_bytes() +
           submit_dedup_memory_bytes() + crypto_.enrolled_memory_bytes();
  }

  /// Removes and returns, as a ShardState, every piece of per-client
  /// state whose session key satisfies `moves` (keys are
  /// proto::SessionTable::client_key of the client id; confirmation
  /// sessions and dedup rows are selected by their stored client tag,
  /// which is that same key): the moved sessions, the moved clients as
  /// {id, key blob} with their verify contexts erased here, the moved
  /// dedup rows, and source_now_ns. Replay digests are unattributable
  /// signature hashes, so every one is copied, not removed: merging a
  /// superset into the destination only widens its defence-in-depth
  /// screen (a signature is never legitimately presented to two
  /// shards). next_tx_id and tx_accepted_total stay 0 -- tx ids and
  /// accept totals belong to the issuing shard. The caller feeds the
  /// state to the new owner's import_state.
  store::ShardState extract_for_handoff(
      const std::function<bool(const proto::SessionTable::Key&)>& moves);

  /// The durable-state vocabulary as a value: sessions, enrolled keys
  /// (serialized), replay digests, dedup rows, counters. This is what
  /// compaction snapshots and what recovery rebuilds -- the same shape
  /// extract_for_handoff moves.
  store::ShardState export_state() const;

  /// Compacts the journal into a snapshot of the current state (no-op
  /// when the SP is not durable). The cluster checkpoints every durable
  /// shard after a rebalance so extracted state cannot resurrect from a
  /// stale journal, and on clean shutdown so restart is snapshot-fast.
  void checkpoint();

  /// Merges a ShardState into this SP: one import for a handoff (the
  /// state another shard's extract_for_handoff produced) and for crash
  /// recovery (the constructor feeds it the journal's fold). Advances
  /// the session timeline to the source's, merge-restores both session
  /// tables in ascending-deadline order (preserving the LRU == deadline
  /// invariant), rebuilds each client's verify context from its key
  /// blob, replays the replay-cache digests, re-seats the TxSubmit dedup
  /// rows and raises the tx-id cursor to next_tx_id. Counters are not
  /// touched: a handoff moves clients, it does not enroll them again.
  /// Exactly-once semantics survive: a settled session's cached
  /// response, its dedup row and its replay digests all arrive intact.
  /// Throws std::runtime_error on an unparseable key blob.
  void import_state(store::ShardState&& state);

 private:
  /// One entry of the direct-mapped TxSubmit dedup map: remembers which
  /// tx_id a (client, request-digest) pair was assigned, so a
  /// retransmitted TxSubmit -- which cannot name its tx_id -- finds the
  /// session it already opened instead of opening a second one. Fixed
  /// size, overwrite on collision: an evicted entry only costs the
  /// retransmit a fresh (harmless) session.
  struct SubmitDedup {
    proto::SessionTable::Key client{};
    proto::SessionTable::Key digest{};
    std::uint64_t tx_id = 0;
    std::uint8_t used = 0;
  };

  /// handle_frame minus the journal commit (the batch path calls this
  /// per frame and commits once per batch).
  Bytes process_frame(BytesView frame);

  // The four protocol steps process_frame runs once a frame has passed
  // its retransmission screen.
  core::EnrollChallenge begin_enrollment(const core::EnrollBegin& msg);
  core::EnrollResult complete_enrollment(const core::EnrollComplete& msg);
  core::TxChallenge begin_transaction(const core::TxSubmit& msg);
  core::TxResult complete_transaction(const core::TxConfirm& msg);

  /// Stages the frame's write-ahead record, once its reply is cached in
  /// `session`: a store::ShardState delta that `fill` loads with what
  /// the frame changed, stamped with the counters every delta carries.
  /// Nothing reaches storage until commit_journal() at the end of the
  /// handle_frame / handle_frame_batch call, which runs before the call
  /// returns any reply. Builds no delta when config_.durable == nullptr,
  /// or when the frame left no session (a completion that found none
  /// changed no durable state).
  template <typename Fill>
  void journal(const proto::SessionTable::Session* session, Fill&& fill);
  /// Commits the call's staged records in one backend append, then
  /// compacts when the journal crossed its configured size threshold.
  /// May throw store::CrashInjected (fault-injecting backends) or
  /// std::runtime_error (a failed write/fdatasync), which the serving
  /// layer treats as the process dying mid-batch.
  void commit_journal();

  Bytes fresh_nonce();
  obs::Counter& reject_counter(proto::RejectCode code) {
    return *c_reject_[static_cast<std::size_t>(code)];
  }
  core::EnrollResult reject_enrollment(proto::RejectCode code);
  core::TxResult reject_tx(std::uint64_t tx_id, proto::RejectCode code);
  /// Mirrors session-table occupancy and pressure counters into the
  /// registry (gauges + monotonic counters).
  void publish_session_metrics();

  std::size_t submit_dedup_index(const proto::SessionTable::Key& client,
                                 const proto::SessionTable::Key& digest) const;
  /// Packs one session slot's cached-response facts into the POD view
  /// the SpCore retransmission screens consume. See handle_frame.
  static proto::SpReplayView replay_view(
      const proto::SessionTable::Session* session,
      const proto::SessionTable::Key& digest);

  SpConfig config_;
  crypto::HmacDrbg drbg_;
  /// Half-open protocol sessions, bounded and deadline-aware; the
  /// adapters below drive them through proto::step.
  proto::SessionTable enroll_sessions_;  // keyed by client id
  proto::SessionTable tx_sessions_;      // keyed by tx id
  /// The crypto boundary: enrollment-evidence checks and confirmation
  /// signature verification, with the per-client cached verify contexts
  /// (Montgomery / window-table precompute) living behind it. The shell
  /// only ever asks it yes/no questions the SpCore decisions demand.
  AttestationCryptoPort crypto_;
  ReplayCache seen_signatures_;  // bounded defence-in-depth replay cache
  /// Direct-mapped (client, digest) -> tx_id map for TxSubmit dedup;
  /// power-of-two sized from tx_session_capacity, constant memory.
  std::vector<SubmitDedup> submit_dedup_;
  std::size_t submit_dedup_mask_ = 0;
  std::uint64_t next_tx_id_ = 1;
  SimTime manual_now_{0};  // session timeline when config_.clock == nullptr

  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;
  obs::Counter* c_enrolled_;
  obs::Counter* c_enroll_rejected_;
  obs::Counter* c_tx_accepted_;
  obs::Counter* c_tx_rejected_;
  /// Per-backend slices ("sp.enrolled.tpm12", ".enrolled.tpm2",
  /// ".tx_accepted.tpm12", ".tx_accepted.tpm2").
  std::array<obs::Counter*, tpm::kNumQuoteFormats> c_enrolled_fmt_{};
  std::array<obs::Counter*, tpm::kNumQuoteFormats> c_tx_accepted_fmt_{};
  /// Fixed per-RejectCode counters, resolved once at construction: the
  /// reject hot path is two relaxed atomic increments, no allocation.
  std::array<obs::Counter*, proto::kRejectCodeCount> c_reject_{};
  obs::Counter* c_sessions_evicted_;
  obs::Counter* c_sessions_expired_;
  obs::Counter* c_replayed_challenge_;
  obs::Counter* c_replayed_result_;
  /// Recovery observability, created only for durable SPs
  /// ("sp.recovery.replayed_records", ".recovery.truncated_tail",
  /// ".recovery.snapshot_age").
  obs::Counter* c_recovery_replayed_ = nullptr;
  obs::Counter* c_recovery_truncated_ = nullptr;
  obs::Gauge* g_recovery_snapshot_age_ = nullptr;
  obs::Gauge* g_enroll_sessions_;
  obs::Gauge* g_tx_sessions_;
  /// Table counts already published to the registry counters (lets
  /// reset_stats() zero the registry without double-counting later).
  std::uint64_t published_evictions_ = 0;
  std::uint64_t published_expirations_ = 0;
  obs::Histogram* h_enroll_;
  obs::Histogram* h_tx_;
};

}  // namespace tp::sp
