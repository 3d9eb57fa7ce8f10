// SpCore: the service provider's pure protocol decision core.
//
// Every decision the SP makes about a protocol message -- is the session
// live, which checks gate acceptance, what settles, what must be erased,
// counted or replayed -- is a pure function in this file, of the shape
// (state views, facts) -> (state', Action[]). The functions never touch
// a table, a cache, a counter or the wire: they consume compact POD
// views of that state and return decisions plus a closed action
// vocabulary (SpActionKind) for the shell to execute.
//
// Two consumers drive the same functions:
//   * sp::ServiceProvider, the imperative shell: it parses frames, backs
//     the views with its SessionTable/ReplayCache/SubmitDedup, executes
//     actions against real crypto (through proto::CryptoPort) and real
//     metrics, and serializes responses. Byte-for-byte the behaviour of
//     the pre-core monolith (pinned by tests/differential_test.cpp).
//   * model::Explorer, the bounded-depth model checker: it backs the
//     views with symbolic session/replay state and explores every
//     interleaving of these decisions against a Dolev-Yao attacker.
//
// The FSM transitions themselves stay in session_fsm.h (proto::step);
// SpCore layers the SP's check ordering and side-effect decisions on
// top, which is exactly the logic that used to be interleaved with I/O
// inside ServiceProvider and therefore unexplorable.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "proto/reject_code.h"
#include "proto/session_fsm.h"

namespace tp::proto {

// ---- action vocabulary -----------------------------------------------

/// Everything a decision can ask the shell to do. Closed: the shell's
/// executor switches over this enum exhaustively, and the model checker
/// interprets the same list against its symbolic state, so a decision
/// cannot have an effect one consumer applies and the other misses.
enum class SpActionKind : std::uint8_t {
  kNone = 0,
  kOpenSession,      // claim/recycle the slot, arm the deadline
  kStoreNonce,       // persist the fresh challenge nonce in the slot
  kSendFrame,        // emit the response built from this decision
  kVerifySignature,  // run the crypto port over the gathered statement
  kSealResponse,     // cache the response against the request digest
  kReplayResponse,   // answer from the cached response (no counters)
  kApplyState,       // write next_state back to the session slot
  kRecordSignature,  // insert the signature into the replay cache
  kCountAccept,      // bump the accept counter family
  kCountReject,      // bump the reject counter family (code attached)
};

struct SpAction {
  SpActionKind kind = SpActionKind::kNone;
  RejectCode reject = RejectCode::kNone;  // for kCountReject
};

/// Fixed-capacity action list -- no allocation on any decision path.
class SpActionList {
 public:
  static constexpr std::size_t kCapacity = 6;

  constexpr void push(SpActionKind kind,
                      RejectCode reject = RejectCode::kNone) {
    if (count_ < kCapacity) items_[count_++] = SpAction{kind, reject};
  }
  constexpr const SpAction* begin() const { return items_.data(); }
  constexpr const SpAction* end() const { return items_.data() + count_; }
  constexpr std::size_t size() const { return count_; }

 private:
  std::array<SpAction, kCapacity> items_{};
  std::size_t count_ = 0;
};

// ---- state views ------------------------------------------------------

/// One session slot as the core sees it at lookup time.
struct SpSessionView {
  bool found = false;
  /// The table reported the slot's deadline passed at this lookup (the
  /// session was collected just now).
  bool deadline_passed = false;
  SessionState state = SessionState::kIdle;
};

/// Pre-signature facts about one completion attempt, gathered by the
/// shell for a live session. Enrollment passes the defaults: its only
/// gate is the crypto port's evidence check.
struct SpCompleteFacts {
  bool client_matches = true;        // session binding == message client
  bool require_trusted_path = true;  // SP policy knob (F2 baseline rows)
  bool enrolled = true;              // crypto port knows this client
  enum class Verdict : std::uint8_t { kConfirmed = 0, kRejected, kTimeout };
  Verdict verdict = Verdict::kConfirmed;  // the human's answer
  bool signature_replayed = false;   // replay-cache hit on the signature
};

// ---- decisions --------------------------------------------------------

/// Phase-1 decision (EnrollBegin / TxSubmit): a begin always (re)opens
/// the session and answers with a fresh challenge.
struct SpBegin {
  SessionState next_state = SessionState::kChallengeSent;
  SpActionList actions;
};

constexpr SpBegin sp_begin(SessionPhase phase) {
  SpBegin out;
  out.next_state = step(phase, SessionState::kIdle, SessionEvent::kBegin).next;
  out.actions.push(SpActionKind::kOpenSession);
  out.actions.push(SpActionKind::kStoreNonce);
  out.actions.push(SpActionKind::kSendFrame);
  return out;
}

/// Stage-A decision for a completion: does a live session accept this
/// kComplete at all? Mirrors the FSM gate the monolith ran first --
/// session miss (expired vs never-existed), terminal-hold guard, or a
/// live challenge demanding kVerify.
struct SpGate {
  /// The session exists and was stepped toward verification; the
  /// pre-signature screen and settle must run. False on the miss and
  /// terminal-guard paths, which reject without a settle step.
  bool session_live = false;
  bool state_valid = false;  // next_state must be written to the slot
  SessionState next_state = SessionState::kIdle;
  RejectCode reject = RejectCode::kNone;
  SpActionList actions;
};

constexpr SpGate sp_gate_complete(SessionPhase phase,
                                  const SpSessionView& view) {
  SpGate out;
  if (!view.found) {
    // No live session: feed kComplete to the state the table reports
    // (kExpired when the deadline collected the slot just now, kIdle
    // otherwise) and let the FSM pick the reject code.
    const Step miss = step(phase,
                           view.deadline_passed ? SessionState::kExpired
                                                : SessionState::kIdle,
                           SessionEvent::kComplete);
    out.reject = miss.reject;
    out.actions.push(SpActionKind::kCountReject, miss.reject);
    out.actions.push(SpActionKind::kSendFrame);
    return out;
  }
  // Live session: kComplete from kChallengeSent demands kVerify. A
  // terminal session held for idempotent replay refuses a fresh
  // completion with its typed code (byte-identical retransmits are
  // answered from the response cache before this).
  const Step on_complete = step(phase, view.state, SessionEvent::kComplete);
  out.state_valid = true;
  out.next_state = on_complete.next;
  out.actions.push(SpActionKind::kApplyState);
  if (on_complete.action != SessionAction::kVerify) {
    out.reject = on_complete.reject;
    out.actions.push(SpActionKind::kCountReject, on_complete.reject);
    out.actions.push(SpActionKind::kSendFrame);
    return out;
  }
  out.session_live = true;
  return out;
}

/// Stage-B decision: the pre-signature screen for a live session, in the
/// seed's check order -- client binding, policy knob, enrollment, human
/// verdict, replay backstop -- ending (when everything passes) in the
/// kVerifySignature action.
struct SpScreen {
  bool need_verify = false;
  bool verified_by_trusted_path = false;
  RejectCode reject = RejectCode::kNone;
  SpActionList actions;
};

constexpr SpScreen sp_screen_complete(const SpCompleteFacts& facts) {
  SpScreen out;
  if (!facts.client_matches) {
    out.reject = RejectCode::kClientMismatch;
    out.actions.push(SpActionKind::kCountReject, out.reject);
    return out;
  }
  if (!facts.require_trusted_path) {
    // Baseline mode: execute whatever the (possibly compromised) client
    // software asked for. This is the world before the trusted path.
    return out;
  }
  out.verified_by_trusted_path = true;
  if (!facts.enrolled) {
    out.reject = RejectCode::kClientNotEnrolled;
    out.actions.push(SpActionKind::kCountReject, out.reject);
    return out;
  }
  if (facts.verdict != SpCompleteFacts::Verdict::kConfirmed) {
    out.reject = facts.verdict == SpCompleteFacts::Verdict::kRejected
                     ? RejectCode::kUserRejected
                     : RejectCode::kUserTimeout;
    out.actions.push(SpActionKind::kCountReject, out.reject);
    return out;
  }
  // Defence in depth: a signature is never accepted twice even if the
  // one-shot challenge logic were bypassed.
  if (facts.signature_replayed) {
    out.reject = RejectCode::kReplayedSignature;
    out.actions.push(SpActionKind::kCountReject, out.reject);
    return out;
  }
  out.need_verify = true;
  out.actions.push(SpActionKind::kVerifySignature);
  return out;
}

/// Everything the settle decision consumes, for a session the gate let
/// through (misses and terminal holds reject at the gate and never
/// settle). `state` is the slot's state after the gate; `pre_reject` is
/// the screen's first failing check; `verify_reject` is the code a
/// failed signature check maps to (kBadSignature for confirmations, the
/// crypto port's first-failing evidence code for enrollments).
struct SpSettleInput {
  SessionState state = SessionState::kIdle;
  bool need_verify = false;
  bool verify_ok = false;
  RejectCode pre_reject = RejectCode::kNone;
  RejectCode verify_reject = RejectCode::kBadSignature;
};

struct SpSettle {
  SessionState next_state = SessionState::kIdle;
  bool accepted = false;
  bool record_signature = false;  // insert into the replay cache
  RejectCode reject = RejectCode::kNone;
  SpActionList actions;
};

constexpr SpSettle sp_settle_complete(SessionPhase phase,
                                      const SpSettleInput& in) {
  SpSettle out;
  RejectCode verdict = in.pre_reject;
  if (verdict == RejectCode::kNone && in.need_verify && !in.verify_ok) {
    verdict = in.verify_reject;
  }
  const Step settle = step(phase, in.state,
                           verdict == RejectCode::kNone
                               ? SessionEvent::kVerifyOk
                               : SessionEvent::kVerifyFail);
  out.next_state = settle.next;
  out.accepted = settle.action == SessionAction::kAccept;
  // The terminal session stays in its slot until its original deadline:
  // a re-sent kComplete is answered from the response cache, or refused
  // by the terminal guard when its bytes differ.
  out.actions.push(SpActionKind::kApplyState);
  if (out.accepted) {
    out.record_signature = in.need_verify;
    if (in.need_verify) out.actions.push(SpActionKind::kRecordSignature);
    out.actions.push(SpActionKind::kCountAccept);
  } else {
    out.reject = verdict;
    out.actions.push(SpActionKind::kCountReject, verdict);
  }
  out.actions.push(SpActionKind::kSendFrame);
  return out;
}

// ---- idempotent-retransmission screens --------------------------------

/// A possibly-retransmitted frame against the cached-response state of
/// its session slot.
struct SpReplayView {
  bool session_found = false;
  bool live_challenge = false;  // state == kChallengeSent
  bool terminal = false;
  bool digest_matches = false;  // request digest == cached digest
  bool has_response = false;
};

enum class SpRetransmit : std::uint8_t {
  kProcess,         // not a retransmission: run the normal path
  kReplayResponse,  // byte-identical retry: replay the cached response
  kRetryMismatch,   // differing retry of a settled session: typed reject
};

/// Begins (EnrollBegin / TxSubmit) replay against a LIVE challenge they
/// already opened; anything else falls through to normal processing
/// (which recycles or opens the slot -- never a mismatch reject).
constexpr SpRetransmit sp_screen_begin_retransmit(const SpReplayView& v) {
  if (v.session_found && v.live_challenge && v.digest_matches &&
      v.has_response) {
    return SpRetransmit::kReplayResponse;
  }
  return SpRetransmit::kProcess;
}

/// Completes (EnrollComplete / TxConfirm) replay against a TERMINAL held
/// session; a differing payload aimed at a settled session is not a
/// retransmission and gets the typed kRetryMismatch reject.
constexpr SpRetransmit sp_screen_complete_retransmit(const SpReplayView& v) {
  if (!v.session_found || !v.terminal) return SpRetransmit::kProcess;
  if (v.digest_matches && v.has_response) {
    return SpRetransmit::kReplayResponse;
  }
  return SpRetransmit::kRetryMismatch;
}

}  // namespace tp::proto
