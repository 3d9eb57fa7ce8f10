#include "sp/service_provider.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/trusted_path_pal.h"
#include "proto/crypto_port.h"
#include "store/durable_log.h"
#include "store/shard_state.h"

namespace tp::sp {

using namespace core;  // message types

namespace {
constexpr proto::SessionPhase kEnrollPhase = proto::SessionPhase::kEnroll;
constexpr proto::SessionPhase kConfirmPhase = proto::SessionPhase::kConfirm;
/// Every SP instrument is named "sp.<name>".
constexpr const char* kMetricsPrefix = "sp";

std::size_t dedup_size_for(std::size_t tx_capacity) {
  // Power of two >= 2x the tx-session capacity: every live session can
  // hold a dedup entry at load factor <= 1/2-ish (direct-mapped, so
  // collisions overwrite -- harmless, see SubmitDedup).
  std::size_t size = 8;
  while (size < tx_capacity * 2 && size < (std::size_t{1} << 20)) size <<= 1;
  return size;
}

std::uint64_t key_word(const proto::SessionTable::Key& key) {
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    word = (word << 8) | key[i];
  }
  return word;
}

Bytes replay_response(const proto::SessionTable::Session& session) {
  const BytesView view = session.response_view();
  return Bytes(view.begin(), view.end());
}

void cache_response(proto::SessionTable::Session* session,
                    const proto::SessionTable::Key& digest,
                    const Bytes& response) {
  if (session == nullptr) return;
  session->request_digest = digest;
  session->set_response(response);
}

void sort_by_id(std::vector<store::EnrolledClient>& clients) {
  std::sort(clients.begin(), clients.end(),
            [](const store::EnrolledClient& a, const store::EnrolledClient& b) {
              return a.id < b.id;
            });
}

// Merges imported sessions into `table`. restore() appends at the LRU
// back, so entries must land in ascending-deadline order to keep the
// LRU == deadline invariant; both the table's own snapshot and the
// incoming state are individually sorted, and the combined set is
// re-sorted when the table was non-empty.
void merge_restore(proto::SessionTable& table,
                   std::vector<proto::SessionTable::Entry>&& incoming) {
  if (incoming.empty()) return;
  std::vector<proto::SessionTable::Entry> own = table.snapshot();
  if (!own.empty()) {
    for (const auto& e : own) table.erase(e.key);
    incoming.insert(incoming.end(), own.begin(), own.end());
    std::stable_sort(incoming.begin(), incoming.end(),
                     [](const proto::SessionTable::Entry& a,
                        const proto::SessionTable::Entry& b) {
                       return a.session.deadline < b.session.deadline;
                     });
  }
  for (const auto& e : incoming) table.restore(e.key, e.session);
}
}  // namespace

ServiceProvider::ServiceProvider(SpConfig config)
    : config_(std::move(config)),
      drbg_(concat(bytes_of("service-provider:"), config_.seed)),
      enroll_sessions_(proto::SessionTableConfig{
          config_.enroll_session_capacity, config_.session_ttl}),
      tx_sessions_(proto::SessionTableConfig{config_.tx_session_capacity,
                                             config_.session_ttl}),
      crypto_(config_.ca_public, config_.golden_pcr17,
              config_.accepted_policies, config_.expected_clients),
      seen_signatures_(config_.replay_cache_capacity),
      submit_dedup_(dedup_size_for(config_.tx_session_capacity)),
      submit_dedup_mask_(submit_dedup_.size() - 1) {
  next_tx_id_ = config_.tx_id_base + 1;
  if (config_.metrics != nullptr) {
    registry_ = config_.metrics;
  } else {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  const std::string p = kMetricsPrefix;
  c_enrolled_ = &registry_->counter(p + ".enrolled");
  c_enroll_rejected_ = &registry_->counter(p + ".enroll_rejected");
  c_tx_accepted_ = &registry_->counter(p + ".tx_accepted");
  c_tx_rejected_ = &registry_->counter(p + ".tx_rejected");
  for (std::size_t i = 0; i < tpm::kNumQuoteFormats; ++i) {
    const char* name =
        tpm::quote_format_name(i == 0 ? tpm::QuoteFormat::kTpm12
                                      : tpm::QuoteFormat::kTpm2);
    c_enrolled_fmt_[i] = &registry_->counter(p + ".enrolled." + name);
    c_tx_accepted_fmt_[i] = &registry_->counter(p + ".tx_accepted." + name);
  }
  for (std::size_t i = 0; i < proto::kRejectCodeCount; ++i) {
    c_reject_[i] = &registry_->counter(
        p + ".reject." +
        proto::reject_code_name(static_cast<proto::RejectCode>(i)));
  }
  c_sessions_evicted_ = &registry_->counter(p + ".sessions_evicted");
  c_sessions_expired_ = &registry_->counter(p + ".sessions_expired");
  c_replayed_challenge_ =
      &registry_->counter(p + ".retry.replayed_challenge");
  c_replayed_result_ = &registry_->counter(p + ".retry.replayed_result");
  g_enroll_sessions_ = &registry_->gauge(p + ".enroll_sessions");
  g_tx_sessions_ = &registry_->gauge(p + ".tx_sessions");
  h_enroll_ = &registry_->histogram(p + ".enroll_ns");
  h_tx_ = &registry_->histogram(p + ".tx_ns");

  if (config_.durable != nullptr) {
    c_recovery_replayed_ =
        &registry_->counter(p + ".recovery.replayed_records");
    c_recovery_truncated_ =
        &registry_->counter(p + ".recovery.truncated_tail");
    g_recovery_snapshot_age_ =
        &registry_->gauge(p + ".recovery.snapshot_age");
    auto recovered = config_.durable->recover();
    if (!recovered.ok()) {
      throw std::runtime_error("ServiceProvider: recovery failed: " +
                               recovered.error().to_string());
    }
    const store::RecoveryStats& rs = config_.durable->recovery_stats();
    c_recovery_replayed_->inc(rs.replayed_records);
    c_recovery_truncated_->inc(rs.truncated_tail_bytes);
    g_recovery_snapshot_age_->set(rs.snapshot_age_ns);
    store::ShardState state = recovered.take();
    // Cumulative counters: the journal carries the shard's accept total,
    // and the enrolled count is the recovered population. They are bumped
    // here, not in import_state, because a handoff moves clients without
    // enrolling them again. Per-format and per-reject slices are
    // observability-only and restart at zero (documented in DESIGN.md).
    c_tx_accepted_->inc(state.tx_accepted_total);
    c_enrolled_->inc(state.enrolled.size());
    import_state(std::move(state));
    // Deterministic per (seed, recovery point) but disjoint from the
    // pre-crash stream: the journal does not capture DRBG positions, so
    // without this a restarted shard would re-issue nonces whose
    // challenges may already be in hostile hands.
    drbg_.reseed(concat(
        bytes_of("sp-recovery:" +
                 std::to_string(config_.durable->next_seq()) + ":"),
        config_.seed));
  }
}

Bytes ServiceProvider::fresh_nonce() { return drbg_.generate(kNonceLen); }

SpStats ServiceProvider::stats() const {
  SpStats snap;
  snap.enrolled = c_enrolled_->value();
  snap.enroll_rejected = c_enroll_rejected_->value();
  snap.tx_accepted = c_tx_accepted_->value();
  snap.tx_rejected = c_tx_rejected_->value();
  for (std::size_t i = 0; i < tpm::kNumQuoteFormats; ++i) {
    snap.enrolled_by_format[i] = c_enrolled_fmt_[i]->value();
    snap.tx_accepted_by_format[i] = c_tx_accepted_fmt_[i]->value();
  }
  for (std::size_t i = 0; i < proto::kRejectCodeCount; ++i) {
    snap.rejects_by_code[i] = c_reject_[i]->value();
  }
  snap.sessions_evicted = c_sessions_evicted_->value();
  snap.sessions_expired = c_sessions_expired_->value();
  return snap;
}

void ServiceProvider::reset_stats() {
  registry_->reset(std::string(kMetricsPrefix) + ".");
  // The tables' own totals keep running; future publishes must add only
  // what happens after this reset.
  published_evictions_ = session_evictions();
  published_expirations_ = session_expirations();
  publish_session_metrics();
}

void ServiceProvider::publish_session_metrics() {
  g_enroll_sessions_->set(
      static_cast<std::int64_t>(enroll_sessions_.size()));
  g_tx_sessions_->set(static_cast<std::int64_t>(tx_sessions_.size()));
  const std::uint64_t evicted = session_evictions();
  if (evicted > published_evictions_) {
    c_sessions_evicted_->inc(evicted - published_evictions_);
    published_evictions_ = evicted;
  }
  const std::uint64_t expired = session_expirations();
  if (expired > published_expirations_) {
    c_sessions_expired_->inc(expired - published_expirations_);
    published_expirations_ = expired;
  }
}

EnrollResult ServiceProvider::reject_enrollment(proto::RejectCode code) {
  c_enroll_rejected_->inc();
  reject_counter(code).inc();
  return EnrollResult{false, proto::reject_code_message(code), code};
}

TxResult ServiceProvider::reject_tx(std::uint64_t tx_id,
                                    proto::RejectCode code) {
  c_tx_rejected_->inc();
  reject_counter(code).inc();
  return TxResult{tx_id, false, proto::reject_code_message(code), code};
}

EnrollChallenge ServiceProvider::begin_enrollment(const EnrollBegin& msg) {
  // kBegin is legal from every state (the FSM recycles terminal and
  // half-open sessions alike). sp_begin asks for open-session /
  // store-nonce / send-frame; begin() is the open's bookkeeping: collect
  // expired, evict under pressure, arm the deadline.
  const SimTime now = session_now();
  const proto::SpBegin decision = proto::sp_begin(kEnrollPhase);
  EnrollChallenge challenge{fresh_nonce()};
  proto::SessionTable::Session& session =
      enroll_sessions_.begin(proto::SessionTable::client_key(msg.client_id),
                             now);
  session.state = decision.next_state;
  session.set_nonce(challenge.nonce);
  publish_session_metrics();
  return challenge;
}

EnrollResult ServiceProvider::complete_enrollment(const EnrollComplete& msg) {
  obs::ScopedTimer timer(*h_enroll_);
  const SimTime now = session_now();
  const proto::SessionTable::Key key =
      proto::SessionTable::client_key(msg.client_id);
  bool deadline_passed = false;
  proto::SessionTable::Session* session =
      enroll_sessions_.find(key, now, &deadline_passed);

  // Stage A: the gate decides whether this completion reaches the
  // evidence check at all -- session miss (expired vs never-existed) and
  // the terminal-hold guard reject here, with the FSM's typed code.
  const proto::SpGate gate = proto::sp_gate_complete(
      kEnrollPhase,
      proto::SpSessionView{session != nullptr, deadline_passed,
                           session != nullptr ? session->state
                                              : proto::SessionState::kIdle});
  if (gate.state_valid) session->state = gate.next_state;
  if (!gate.session_live) {
    publish_session_metrics();
    return reject_enrollment(gate.reject);
  }

  // Stage B: enrollment's pre-signature facts are all defaults -- the
  // screen always lands on kVerifySignature, answered by the crypto
  // port's full evidence check (certificate chain, quote signature +
  // nonce binding, attestation policy, key parse; kNone registers the
  // enrollment and caches the verify context).
  const proto::SpScreen screen =
      proto::sp_screen_complete(proto::SpCompleteFacts{});
  proto::RejectCode evidence = proto::RejectCode::kNone;
  // The enrolled counters count clients: a known id that enrolls again
  // replaces its key without being counted twice.
  const bool new_client = !crypto_.is_enrolled(msg.client_id);
  if (screen.need_verify) {
    evidence = crypto_.verify_enrollment(proto::EnrollEvidence{
        msg.client_id, static_cast<std::uint8_t>(msg.format),
        msg.confirmation_pubkey, msg.quote, msg.aik_certificate,
        session->nonce_view()});
  }

  // Stage C: settle. Terminal either way; the slot holds the terminal
  // state (and, once process_frame caches it, the response) until its
  // original deadline so retransmitted completes replay the same answer.
  const proto::SpSettle settle = proto::sp_settle_complete(
      kEnrollPhase,
      proto::SpSettleInput{session->state, screen.need_verify,
                           evidence == proto::RejectCode::kNone,
                           screen.reject, /*verify_reject=*/evidence});
  session->state = settle.next_state;
  publish_session_metrics();
  if (settle.accepted) {
    if (new_client) {
      c_enrolled_->inc();
      c_enrolled_fmt_[tpm::quote_format_index(msg.format)]->inc();
    }
    return EnrollResult{true, "enrolled"};
  }
  return reject_enrollment(settle.reject);
}

TxChallenge ServiceProvider::begin_transaction(const TxSubmit& msg) {
  const SimTime now = session_now();
  const proto::SpBegin decision = proto::sp_begin(kConfirmPhase);
  TxChallenge challenge;
  challenge.tx_id = next_tx_id_++;
  challenge.nonce = fresh_nonce();
  proto::SessionTable::Session& session = tx_sessions_.begin(
      proto::SessionTable::tx_key(challenge.tx_id), now);
  session.state = decision.next_state;
  session.client = proto::SessionTable::client_key(msg.client_id);
  session.set_nonce(challenge.nonce);
  const Bytes digest = msg.digest();
  std::copy_n(digest.begin(),
              std::min(digest.size(), session.tx_digest.size()),
              session.tx_digest.begin());
  publish_session_metrics();
  return challenge;
}

TxResult ServiceProvider::complete_transaction(const TxConfirm& msg) {
  obs::ScopedTimer timer(*h_tx_);
  const SimTime now = session_now();
  const proto::SessionTable::Key key = proto::SessionTable::tx_key(msg.tx_id);
  bool deadline_passed = false;
  proto::SessionTable::Session* session =
      tx_sessions_.find(key, now, &deadline_passed);

  // Stage A: the gate -- session miss and the terminal-hold guard reject
  // here (same guard as enrollment: a settled session refuses a fresh
  // completion with its typed code).
  const proto::SpGate gate = proto::sp_gate_complete(
      kConfirmPhase,
      proto::SpSessionView{session != nullptr, deadline_passed,
                           session != nullptr ? session->state
                                              : proto::SessionState::kIdle});
  if (gate.state_valid) session->state = gate.next_state;
  if (!gate.session_live) {
    publish_session_metrics();
    return reject_tx(msg.tx_id, gate.reject);
  }

  // Stage B: gather the pre-signature facts (all side-effect-free
  // lookups) and let the screen order the checks -- the seed's order:
  // binding, policy knob, enrollment, human verdict, replay backstop,
  // signature.
  const proto::CryptoPort::ConfirmHandle handle =
      crypto_.confirm_handle(msg.client_id);
  proto::SpCompleteFacts facts;
  facts.client_matches =
      session->client == proto::SessionTable::client_key(msg.client_id);
  facts.require_trusted_path = config_.require_trusted_path;
  facts.enrolled = handle != nullptr;
  facts.verdict = msg.verdict == Verdict::kConfirmed
                      ? proto::SpCompleteFacts::Verdict::kConfirmed
                      : (msg.verdict == Verdict::kRejected
                             ? proto::SpCompleteFacts::Verdict::kRejected
                             : proto::SpCompleteFacts::Verdict::kTimeout);
  // Defence in depth: a signature is never accepted twice even if the
  // one-shot challenge logic were bypassed.
  facts.signature_replayed = seen_signatures_.contains(msg.signature);
  const proto::SpScreen screen = proto::sp_screen_complete(facts);

  // Stage C: the one check the paper's SP relies on -- the genuine PAL's
  // signature over this session's challenge.
  bool verify_ok = false;
  if (screen.need_verify) {
    verify_ok = crypto_.verify_confirmation(
        handle,
        confirmation_statement(
            BytesView(session->tx_digest.data(), session->tx_digest.size()),
            session->nonce_view(), Verdict::kConfirmed),
        msg.signature);
  }

  // Stage D: settle. Terminal either way; the slot holds the terminal
  // session so a re-sent kComplete hits the response cache or the guard
  // above, with the signature replay cache still backstopping a
  // re-verify.
  const proto::SpSettle settle = proto::sp_settle_complete(
      kConfirmPhase,
      proto::SpSettleInput{session->state, screen.need_verify, verify_ok,
                           screen.reject, proto::RejectCode::kBadSignature});
  session->state = settle.next_state;
  publish_session_metrics();
  if (!settle.accepted) return reject_tx(msg.tx_id, settle.reject);
  if (settle.record_signature) seen_signatures_.insert(msg.signature);
  c_tx_accepted_->inc();
  if (screen.need_verify) {
    // Baseline mode (no signature checked) has no backend to attribute.
    c_tx_accepted_fmt_[tpm::quote_format_index(static_cast<tpm::QuoteFormat>(
                           crypto_.format_of(handle)))]
        ->inc();
  }
  return TxResult{msg.tx_id, true,
                  screen.verified_by_trusted_path
                      ? "confirmed by human via trusted path"
                      : "accepted without verification"};
}

store::ShardState ServiceProvider::extract_for_handoff(
    const std::function<bool(const proto::SessionTable::Key&)>& moves) {
  store::ShardState state;
  state.source_now_ns = session_now().ns;

  // Enrollment sessions are keyed by client_key(client_id), exactly what
  // `moves` decides on. snapshot() yields ascending-deadline order, which
  // the importer's restore path wants preserved.
  for (const auto& e : enroll_sessions_.snapshot()) {
    if (!moves(e.key)) continue;
    state.enroll_sessions.push_back(e);
    enroll_sessions_.erase(e.key);
  }
  // Confirmation sessions are keyed by tx id; ownership follows the
  // client tag the session stores. Tx ids stay valid in the destination
  // because every shard issues from a disjoint tx_id_base.
  for (const auto& e : tx_sessions_.snapshot()) {
    if (!moves(e.session.client)) continue;
    state.tx_sessions.push_back(e);
    tx_sessions_.erase(e.key);
  }
  // Moved clients leave as key blobs; the importer rebuilds their verify
  // contexts (see import_state).
  auto& enrolled = crypto_.contexts();
  for (auto it = enrolled.begin(); it != enrolled.end();) {
    if (!moves(proto::SessionTable::client_key(it->first))) {
      ++it;
      continue;
    }
    state.enrolled.push_back(
        store::EnrolledClient{it->first, it->second.key().serialize()});
    it = enrolled.erase(it);
  }
  sort_by_id(state.enrolled);
  // Replay digests are unattributable, so the whole set is copied (not
  // removed); the destination merging a superset only widens its screen.
  state.replay_digests = seen_signatures_.export_digests();
  // TxSubmit dedup rows carry the same client tag.
  for (SubmitDedup& slot : submit_dedup_) {
    if (slot.used == 0 || !moves(slot.client)) continue;
    state.dedup.push_back(store::DedupRow{slot.client, slot.digest,
                                          slot.tx_id});
    slot = SubmitDedup{};
  }
  publish_session_metrics();
  return state;
}

store::ShardState ServiceProvider::export_state() const {
  store::ShardState state;
  state.source_now_ns = session_now().ns;
  state.next_tx_id = next_tx_id_;
  state.tx_accepted_total = c_tx_accepted_->value();
  state.enroll_sessions = enroll_sessions_.snapshot();
  state.tx_sessions = tx_sessions_.snapshot();
  const auto& enrolled = crypto_.contexts();
  state.enrolled.reserve(enrolled.size());
  for (const auto& [id, ctx] : enrolled) {
    state.enrolled.push_back(store::EnrolledClient{id, ctx.key().serialize()});
  }
  // The context map iterates in hash order; sort so two SPs with equal
  // state serialize identically (the restore/handoff equivalence the
  // property tests assert).
  sort_by_id(state.enrolled);
  state.replay_digests = seen_signatures_.export_digests();
  for (const SubmitDedup& slot : submit_dedup_) {
    if (slot.used == 0) continue;
    state.dedup.push_back(store::DedupRow{slot.client, slot.digest,
                                          slot.tx_id});
  }
  return state;
}

void ServiceProvider::import_state(store::ShardState&& state) {
  advance_time_to(SimTime{state.source_now_ns});
  merge_restore(enroll_sessions_, std::move(state.enroll_sessions));
  merge_restore(tx_sessions_, std::move(state.tx_sessions));
  for (store::EnrolledClient& client : state.enrolled) {
    auto key = tpm::AttestationKey::deserialize(client.key_blob);
    if (!key.ok()) {
      // Blobs come from this code's own serialize() behind a CRC (or
      // straight from another shard), so an unparseable key is a logic
      // bug or targeted tampering, not bit-rot; refusing beats silently
      // forgetting an enrollment.
      throw std::runtime_error("ServiceProvider: imported key for '" +
                               client.id + "' unparseable: " +
                               key.error().to_string());
    }
    // Rebuilding the verify context redoes the Montgomery / window-table
    // precompute -- the per-client cost of recovery and of a rebalance.
    crypto_.contexts().insert_or_assign(
        std::move(client.id), tpm::AttestationVerifyContext(key.take()));
  }
  for (const store::ReplayDigest& d : state.replay_digests) {
    seen_signatures_.insert_digest(d);
  }
  for (const store::DedupRow& row : state.dedup) {
    submit_dedup_[submit_dedup_index(row.client, row.digest)] =
        SubmitDedup{row.client, row.digest, row.tx_id, 1};
  }
  next_tx_id_ = std::max(next_tx_id_, state.next_tx_id);
  publish_session_metrics();
}

void ServiceProvider::checkpoint() {
  if (config_.durable == nullptr) return;
  config_.durable->compact(export_state());
}

void ServiceProvider::commit_journal() {
  if (config_.durable == nullptr) return;
  // Group commit: every record this call staged goes to the backend in
  // one append (one write + one fdatasync on FileBackend), before the
  // caller can release any of the call's replies.
  config_.durable->commit();
  if (config_.durable->should_compact()) {
    config_.durable->compact(export_state());
  }
}

template <typename Fill>
void ServiceProvider::journal(const proto::SessionTable::Session* session,
                              Fill&& fill) {
  if (config_.durable == nullptr || session == nullptr) return;
  store::ShardState delta;
  fill(delta);
  delta.source_now_ns = session_now().ns;
  delta.next_tx_id = next_tx_id_;
  delta.tx_accepted_total = c_tx_accepted_->value();
  config_.durable->stage(delta);
}

std::size_t ServiceProvider::submit_dedup_index(
    const proto::SessionTable::Key& client,
    const proto::SessionTable::Key& digest) const {
  // Both keys are truncated SHA-256, already uniform: fold a word from
  // each (client side scrambled so (a, b) and (b, a) land apart).
  return static_cast<std::size_t>(
             key_word(digest) ^ (key_word(client) * 0x9e3779b97f4a7c15ull)) &
         submit_dedup_mask_;
}

proto::SpReplayView ServiceProvider::replay_view(
    const proto::SessionTable::Session* session,
    const proto::SessionTable::Key& digest) {
  proto::SpReplayView view;
  if (session == nullptr) return view;
  view.session_found = true;
  view.live_challenge = session->state == proto::SessionState::kChallengeSent;
  view.terminal = session->terminal();
  view.digest_matches = session->request_digest == digest;
  view.has_response = session->has_response();
  return view;
}

Bytes ServiceProvider::handle_frame(BytesView frame, SimTime now) {
  advance_time_to(now);
  return handle_frame(frame);
}

Bytes ServiceProvider::handle_frame(BytesView frame) {
  Bytes response = process_frame(frame);
  commit_journal();
  return response;
}

Bytes ServiceProvider::process_frame(BytesView frame) {
  auto opened = open_envelope(frame);
  if (!opened.ok()) {
    // Frame-level garbage is counted per code but not as a protocol
    // reject (there is no session to reject).
    reject_counter(proto::RejectCode::kMalformedFrame).inc();
    return envelope(
        MsgType::kTxResult,
        TxResult{0, false,
                 proto::reject_code_message(
                     proto::RejectCode::kMalformedFrame),
                 proto::RejectCode::kMalformedFrame}
            .serialize());
  }
  const auto& [type, payload] = opened.value();
  // Idempotent re-delivery: before reprocessing, check whether this exact
  // payload already advanced a session -- if so, replay the cached
  // response byte-identically (no counters move: the transaction
  // happened once). Begins replay against a live kChallengeSent session;
  // completes replay against a terminal session held until its original
  // deadline. A differing payload aimed at a settled session is not a
  // retransmission and gets the typed kRetryMismatch reject.
  switch (type) {
    case MsgType::kEnrollBegin: {
      auto msg = EnrollBegin::deserialize(payload);
      if (!msg.ok()) {
        return envelope(
            MsgType::kEnrollResult,
            reject_enrollment(proto::RejectCode::kMalformedEnrollBegin)
                .serialize());
      }
      const proto::SessionTable::Key key =
          proto::SessionTable::client_key(msg.value().client_id);
      const proto::SessionTable::Key digest =
          proto::SessionTable::payload_key(payload);
      const proto::SessionTable::Session* held =
          enroll_sessions_.find(key, session_now());
      if (proto::sp_screen_begin_retransmit(replay_view(held, digest)) ==
          proto::SpRetransmit::kReplayResponse) {
        c_replayed_challenge_->inc();
        return replay_response(*held);
      }
      const Bytes resp = envelope(MsgType::kEnrollChallenge,
                                  begin_enrollment(msg.value()).serialize());
      proto::SessionTable::Session* session =
          enroll_sessions_.find(key, session_now());
      cache_response(session, digest, resp);
      journal(session, [&](store::ShardState& delta) {
        delta.enroll_sessions.push_back({key, *session});
      });
      return resp;
    }
    case MsgType::kEnrollComplete: {
      auto msg = EnrollComplete::deserialize(payload);
      if (!msg.ok()) {
        return envelope(
            MsgType::kEnrollResult,
            reject_enrollment(proto::RejectCode::kMalformedEnrollComplete)
                .serialize());
      }
      const proto::SessionTable::Key key =
          proto::SessionTable::client_key(msg.value().client_id);
      const proto::SessionTable::Key digest =
          proto::SessionTable::payload_key(payload);
      const proto::SessionTable::Session* held =
          enroll_sessions_.find(key, session_now());
      switch (proto::sp_screen_complete_retransmit(replay_view(held, digest))) {
        case proto::SpRetransmit::kReplayResponse:
          c_replayed_result_->inc();
          return replay_response(*held);
        case proto::SpRetransmit::kRetryMismatch:
          return envelope(MsgType::kEnrollResult,
                          reject_enrollment(proto::RejectCode::kRetryMismatch)
                              .serialize());
        case proto::SpRetransmit::kProcess:
          break;
      }
      const Bytes resp = envelope(MsgType::kEnrollResult,
                                  complete_enrollment(msg.value()).serialize());
      proto::SessionTable::Session* session =
          enroll_sessions_.find(key, session_now());
      cache_response(session, digest, resp);
      journal(session, [&](store::ShardState& delta) {
        delta.enroll_sessions.push_back({key, *session});
        // The key rides whenever the client holds a verify context after
        // the settle; a rejected first enrollment settles only its session.
        const auto& enrolled = crypto_.contexts();
        if (auto it = enrolled.find(msg.value().client_id);
            it != enrolled.end()) {
          delta.enrolled.push_back({it->first, it->second.key().serialize()});
        }
      });
      return resp;
    }
    case MsgType::kTxSubmit: {
      auto msg = TxSubmit::deserialize(payload);
      if (!msg.ok()) {
        return envelope(
            MsgType::kTxResult,
            reject_tx(0, proto::RejectCode::kMalformedTxSubmit)
                .serialize());
      }
      // A retransmitted TxSubmit cannot name the tx_id it was assigned;
      // the dedup map remembers the mapping so the retry finds the
      // session it already opened instead of opening a second one.
      const proto::SessionTable::Key clientk =
          proto::SessionTable::client_key(msg.value().client_id);
      const proto::SessionTable::Key digest =
          proto::SessionTable::payload_key(payload);
      SubmitDedup& slot = submit_dedup_[submit_dedup_index(clientk, digest)];
      if (slot.used != 0 && slot.client == clientk && slot.digest == digest) {
        const proto::SessionTable::Session* held = tx_sessions_.find(
            proto::SessionTable::tx_key(slot.tx_id), session_now());
        if (proto::sp_screen_begin_retransmit(replay_view(held, digest)) ==
            proto::SpRetransmit::kReplayResponse) {
          c_replayed_challenge_->inc();
          return replay_response(*held);
        }
      }
      const TxChallenge challenge = begin_transaction(msg.value());
      const Bytes resp = envelope(MsgType::kTxChallenge, challenge.serialize());
      const proto::SessionTable::Key key =
          proto::SessionTable::tx_key(challenge.tx_id);
      proto::SessionTable::Session* session =
          tx_sessions_.find(key, session_now());
      cache_response(session, digest, resp);
      slot = SubmitDedup{clientk, digest, challenge.tx_id, 1};
      journal(session, [&](store::ShardState& delta) {
        delta.tx_sessions.push_back({key, *session});
        delta.dedup.push_back({clientk, digest, challenge.tx_id});
      });
      return resp;
    }
    case MsgType::kTxConfirm: {
      auto msg = TxConfirm::deserialize(payload);
      if (!msg.ok()) {
        return envelope(
            MsgType::kTxResult,
            reject_tx(0, proto::RejectCode::kMalformedTxConfirm)
                .serialize());
      }
      const proto::SessionTable::Key key =
          proto::SessionTable::tx_key(msg.value().tx_id);
      const proto::SessionTable::Key digest =
          proto::SessionTable::payload_key(payload);
      const proto::SessionTable::Session* held =
          tx_sessions_.find(key, session_now());
      switch (proto::sp_screen_complete_retransmit(replay_view(held, digest))) {
        case proto::SpRetransmit::kReplayResponse:
          c_replayed_result_->inc();
          return replay_response(*held);
        case proto::SpRetransmit::kRetryMismatch:
          return envelope(MsgType::kTxResult,
                          reject_tx(msg.value().tx_id,
                                    proto::RejectCode::kRetryMismatch)
                              .serialize());
        case proto::SpRetransmit::kProcess:
          break;
      }
      const TxResult result = complete_transaction(msg.value());
      const Bytes resp = envelope(MsgType::kTxResult, result.serialize());
      proto::SessionTable::Session* session =
          tx_sessions_.find(key, session_now());
      cache_response(session, digest, resp);
      journal(session, [&](store::ShardState& delta) {
        delta.tx_sessions.push_back({key, *session});
        // The digest rides in the settle's own record so a torn write can
        // never persist "digest seen" without "session settled" -- which
        // would turn the client's retransmit into a permanent kSigReplay
        // reject. `accepted && contains` is exactly "this settle recorded
        // the signature": the screen rejects replayed signatures before
        // accept, so a pre-existing digest can't satisfy both.
        const BytesView signature = msg.value().signature;
        if (result.accepted && seen_signatures_.contains(signature)) {
          delta.replay_digests.push_back(ReplayCache::digest_of(signature));
        }
      });
      return resp;
    }
    default:
      break;
  }
  reject_counter(proto::RejectCode::kUnexpectedMessage).inc();
  return envelope(
      MsgType::kTxResult,
      TxResult{0, false,
               proto::reject_code_message(
                   proto::RejectCode::kUnexpectedMessage),
               proto::RejectCode::kUnexpectedMessage}
          .serialize());
}

std::vector<Bytes> ServiceProvider::handle_frame_batch(
    std::span<const BytesView> frames, SimTime now) {
  advance_time_to(now);
  return handle_frame_batch(frames);
}

std::vector<Bytes> ServiceProvider::handle_frame_batch(
    std::span<const BytesView> frames) {
  std::vector<Bytes> out;
  out.reserve(frames.size());
  for (const BytesView frame : frames) out.push_back(process_frame(frame));
  commit_journal();
  return out;
}

}  // namespace tp::sp
