#include "model/protocol_model.h"

#include "proto/client_core.h"
#include "proto/reject_code.h"
#include "proto/session_fsm.h"

namespace tp::model {

namespace {

using proto::SessionEvent;
using proto::SessionPhase;
using proto::SessionState;

SessionState to_state(std::uint8_t s) { return static_cast<SessionState>(s); }

/// Mutable handles on one of the SP's two session slots, so the enroll
/// and confirm paths share one implementation.
struct Slot {
  std::uint8_t* state;
  std::uint8_t* nonce;
  std::uint8_t* req;
  std::uint8_t* resp;
};

Slot enroll_slot(World& w) {
  return {&w.enroll_state, &w.enroll_nonce, &w.enroll_req, &w.enroll_resp};
}
Slot tx_slot(World& w) {
  return {&w.tx_state, &w.tx_nonce, &w.tx_req, &w.tx_resp};
}

/// The slot's cached-response view against an incoming request digest --
/// the same shape sp::ServiceProvider::replay_view builds from its
/// SessionTable entry.
proto::SpReplayView replay_view(const Slot& s, std::uint8_t digest) {
  proto::SpReplayView v;
  v.session_found = *s.state != kNoSession;
  if (!v.session_found) return v;
  v.live_challenge = to_state(*s.state) == SessionState::kChallengeSent;
  v.terminal = proto::session_state_terminal(to_state(*s.state));
  v.digest_matches = *s.req == digest;
  v.has_response = *s.resp != kNoFrame;
  return v;
}

proto::SpSessionView session_view(const Slot& s) {
  proto::SpSessionView v;
  v.found = *s.state != kNoSession;
  // Time never passes in the model, so a slot is never deadline-collected
  // (expiry interleavings are the chaos suite's job).
  v.deadline_passed = false;
  v.state = v.found ? to_state(*s.state) : SessionState::kIdle;
  return v;
}

/// EnrollBegin / TxSubmit against the SP.
void sp_handle_begin(World& w, SessionPhase phase) {
  Slot s = phase == SessionPhase::kEnroll ? enroll_slot(w) : tx_slot(w);
  const std::uint8_t digest = phase == SessionPhase::kEnroll
                                  ? kFrameEnrollBegin
                                  : kFrameTxSubmit;
  if (proto::sp_screen_begin_retransmit(replay_view(s, digest)) ==
      proto::SpRetransmit::kReplayResponse) {
    w.learn(*s.resp);
    return;
  }
  std::uint8_t& next = phase == SessionPhase::kEnroll ? w.next_enroll_nonce
                                                      : w.next_tx_nonce;
  const std::uint8_t pool =
      phase == SessionPhase::kEnroll ? kEnrollNoncePool : kTxNoncePool;
  if (next >= pool) return;  // nonce pool exhausted: bounds the space
  const proto::SpBegin decision = proto::sp_begin(phase);
  *s.state = static_cast<std::uint8_t>(decision.next_state);
  *s.nonce = next++;  // the DRBG never repeats a challenge
  *s.req = digest;
  const std::uint8_t resp =
      phase == SessionPhase::kEnroll
          ? static_cast<std::uint8_t>(kFrameEnrollChallenge0 + *s.nonce)
          : static_cast<std::uint8_t>(kFrameTxChallenge0 + *s.nonce);
  *s.resp = resp;
  w.learn(resp);
}

/// EnrollComplete against the SP: retransmit screen, gate, screen,
/// symbolic evidence check, settle -- the shell's exact pipeline.
Invariant sp_handle_enroll_complete(World& w, std::uint8_t frame,
                                    const SeededBugs& bugs) {
  Slot s = enroll_slot(w);
  switch (proto::sp_screen_complete_retransmit(replay_view(s, frame))) {
    case proto::SpRetransmit::kReplayResponse:
      w.learn(*s.resp);
      return Invariant::kNone;
    case proto::SpRetransmit::kRetryMismatch:
      w.learn(kFrameEnrollResultReject);
      return Invariant::kNone;
    case proto::SpRetransmit::kProcess:
      break;
  }
  const proto::SpGate gate =
      proto::sp_gate_complete(SessionPhase::kEnroll, session_view(s));
  if (gate.state_valid) {
    *s.state = static_cast<std::uint8_t>(gate.next_state);
  }
  if (!gate.session_live) {
    w.learn(kFrameEnrollResultReject);
    return Invariant::kNone;
  }
  // Enrollment's screen runs on defaults: its only gate is the evidence
  // check (same as the shell).
  const proto::SpScreen screen =
      proto::sp_screen_complete(proto::SpCompleteFacts{});
  const bool genuine =
      frame >= kFrameEnrollCompleteGenuine0 &&
      frame < kFrameEnrollCompleteGenuine0 + kEnrollNoncePool;
  const std::uint8_t bound_nonce =
      genuine ? static_cast<std::uint8_t>(frame - kFrameEnrollCompleteGenuine0)
              : kNoNonce;
  const bool evidence_ok =
      bugs.skip_crypto_verify || (genuine && bound_nonce == *s.nonce);

  proto::SpSettleInput in;
  in.state = to_state(*s.state);
  in.need_verify = screen.need_verify;
  in.verify_ok = evidence_ok;
  in.pre_reject = screen.reject;
  const proto::SpSettle settle =
      proto::sp_settle_complete(SessionPhase::kEnroll, in);
  if (!bugs.drop_settle_apply) {
    *s.state = static_cast<std::uint8_t>(settle.next_state);
  }
  Invariant violated = Invariant::kNone;
  std::uint8_t resp = kFrameEnrollResultReject;
  if (settle.accepted) {
    w.enrolled = 1;
    resp = kFrameEnrollResultOk;
    if (!(genuine && bound_nonce == w.enroll_nonce)) {
      violated = Invariant::kNoUnattestedEnroll;
    }
  }
  *s.req = frame;
  *s.resp = resp;
  w.learn(resp);
  return violated;
}

/// TxConfirm against the SP.
Invariant sp_handle_tx_confirm(World& w, std::uint8_t frame,
                               const SeededBugs& bugs) {
  Slot s = tx_slot(w);
  switch (proto::sp_screen_complete_retransmit(replay_view(s, frame))) {
    case proto::SpRetransmit::kReplayResponse:
      w.learn(*s.resp);
      return Invariant::kNone;
    case proto::SpRetransmit::kRetryMismatch:
      w.learn(kFrameTxResultReject);
      return Invariant::kNone;
    case proto::SpRetransmit::kProcess:
      break;
  }
  const proto::SpGate gate =
      proto::sp_gate_complete(SessionPhase::kConfirm, session_view(s));
  if (gate.state_valid) {
    *s.state = static_cast<std::uint8_t>(gate.next_state);
  }
  if (!gate.session_live) {
    w.learn(kFrameTxResultReject);
    return Invariant::kNone;
  }
  const std::uint8_t sig = tx_confirm_sig(frame);
  proto::SpCompleteFacts facts;
  facts.client_matches = true;  // one client; splicing ids is out of scope
  facts.require_trusted_path = true;
  facts.enrolled = w.enrolled != 0;
  facts.verdict = tx_confirm_rejected(frame)
                      ? proto::SpCompleteFacts::Verdict::kRejected
                      : proto::SpCompleteFacts::Verdict::kConfirmed;
  facts.signature_replayed = !bugs.skip_replay_screen &&
                             sig < kTxNoncePool &&
                             ((w.replay_mask >> sig) & 1u) != 0;
  const proto::SpScreen screen = proto::sp_screen_complete(facts);
  // Symbolic crypto port: a signature verifies iff it is genuine and
  // binds exactly the challenge this session issued.
  const bool sig_ok =
      bugs.skip_crypto_verify || (sig < kTxNoncePool && sig == *s.nonce);

  proto::SpSettleInput in;
  in.state = to_state(*s.state);
  in.need_verify = screen.need_verify;
  in.verify_ok = sig_ok;
  in.pre_reject = screen.reject;
  in.verify_reject = proto::RejectCode::kBadSignature;
  const proto::SpSettle settle =
      proto::sp_settle_complete(SessionPhase::kConfirm, in);
  if (!bugs.drop_settle_apply) {
    *s.state = static_cast<std::uint8_t>(settle.next_state);
  }
  Invariant violated = Invariant::kNone;
  std::uint8_t resp = kFrameTxResultReject;
  if (settle.accepted) {
    resp = kFrameTxResultOk;
    if (settle.record_signature && sig < kTxNoncePool) {
      w.replay_mask = static_cast<std::uint8_t>(w.replay_mask | (1u << sig));
    }
    const std::uint8_t nonce = w.tx_nonce;  // live session => in-pool
    if (w.accepts(nonce) >= 1) violated = Invariant::kTxExactlyOnce;
    if (w.accepts(nonce) < 3) {
      w.accept_counts =
          static_cast<std::uint8_t>(w.accept_counts + (1u << (2 * nonce)));
    }
    if (violated == Invariant::kNone &&
        !(sig < kTxNoncePool && sig == nonce &&
          ((w.c_signed_mask >> sig) & 1u) != 0)) {
      violated = Invariant::kNoForgedConfirm;
    }
  }
  *s.req = frame;
  *s.resp = resp;
  w.learn(resp);
  return violated;
}

Invariant sp_handle(World& w, std::uint8_t frame, const SeededBugs& bugs) {
  if (frame == kFrameEnrollBegin) {
    sp_handle_begin(w, SessionPhase::kEnroll);
    return Invariant::kNone;
  }
  if (frame == kFrameTxSubmit) {
    sp_handle_begin(w, SessionPhase::kConfirm);
    return Invariant::kNone;
  }
  if (frame >= kFrameEnrollCompleteGenuine0 &&
      frame <= kFrameEnrollCompleteGarbage) {
    return sp_handle_enroll_complete(w, frame, bugs);
  }
  if (frame >= kFrameTxConfirm0 && frame < kFrameTxResultOk) {
    return sp_handle_tx_confirm(w, frame, bugs);
  }
  // Response frames aimed at the SP: not a request, silently ignored
  // (the real frame demux answers a typed reject; neither changes SP
  // state, so the model folds them away).
  return Invariant::kNone;
}

/// What the honest client's exchange loop is waiting for right now.
enum class Await : std::uint8_t {
  kNothing,  // idle, terminal, or the human is mid-decision (not draining)
  kEnrollChallenge,
  kEnrollResult,
  kTxChallenge,
  kTxResult,
};

Await client_await(const World& w) {
  if (to_state(w.c_enroll_fsm) == SessionState::kChallengeSent) {
    return w.c_enroll_nonce == kNoNonce ? Await::kEnrollChallenge
                                        : Await::kEnrollResult;
  }
  if (to_state(w.c_tx_fsm) == SessionState::kChallengeSent) {
    if (w.c_tx_nonce == kNoNonce) return Await::kTxChallenge;
    if ((w.c_flags & kClientVerdictGiven) != 0) return Await::kTxResult;
  }
  return Await::kNothing;
}

bool frame_matches(Await await, std::uint8_t frame) {
  switch (await) {
    case Await::kNothing:
      return false;
    case Await::kEnrollChallenge:
      return frame >= kFrameEnrollChallenge0 &&
             frame < kFrameEnrollChallenge0 + kEnrollNoncePool;
    case Await::kEnrollResult:
      return frame == kFrameEnrollResultOk || frame == kFrameEnrollResultReject;
    case Await::kTxChallenge:
      return frame >= kFrameTxChallenge0 &&
             frame < kFrameTxChallenge0 + kTxNoncePool;
    case Await::kTxResult:
      return frame == kFrameTxResultOk || frame == kFrameTxResultReject;
  }
  return false;
}

void client_handle(World& w, std::uint8_t frame) {
  const Await await = client_await(w);
  if (await == Await::kNothing) return;  // not draining the link
  // The exchange loop's acceptance filter -- the deployed decision
  // function from proto/client_core.h. Symbolic frames are always
  // well-formed; a corrupted frame is just a garbage symbol.
  proto::ClientRxEvent rx;
  rx.delivered = true;
  rx.link_exhausted = false;
  rx.want_type = frame_matches(await, frame);
  rx.well_formed = true;
  if (proto::client_classify_rx(rx) != proto::ClientRxDecision::kAccept) {
    return;  // stale/foreign frame: discard and keep draining
  }
  switch (await) {
    case Await::kNothing:
      return;
    case Await::kEnrollChallenge: {
      // Attest the challenge and answer. The emission is legal iff the
      // shared FSM demands kVerify here -- same table the client runs.
      const proto::Step st =
          proto::step(SessionPhase::kEnroll, SessionState::kChallengeSent,
                      SessionEvent::kComplete);
      if (st.action != proto::SessionAction::kVerify) return;
      w.c_enroll_fsm = static_cast<std::uint8_t>(st.next);
      w.c_enroll_nonce =
          static_cast<std::uint8_t>(frame - kFrameEnrollChallenge0);
      w.learn(static_cast<std::uint8_t>(kFrameEnrollCompleteGenuine0 +
                                        w.c_enroll_nonce));
      return;
    }
    case Await::kEnrollResult: {
      const bool ok = frame == kFrameEnrollResultOk;
      const proto::Step st =
          proto::step(SessionPhase::kEnroll, to_state(w.c_enroll_fsm),
                      ok ? SessionEvent::kVerifyOk : SessionEvent::kVerifyFail);
      w.c_enroll_fsm = static_cast<std::uint8_t>(st.next);
      if (ok) w.c_flags = static_cast<std::uint8_t>(w.c_flags | kClientEnrolled);
      return;
    }
    case Await::kTxChallenge:
      // Hand the challenge to the human; the verdict is a separate
      // scheduler action (kClientConfirm / kClientReject).
      w.c_tx_nonce = static_cast<std::uint8_t>(frame - kFrameTxChallenge0);
      return;
    case Await::kTxResult: {
      const bool ok = frame == kFrameTxResultOk;
      const proto::Step st =
          proto::step(SessionPhase::kConfirm, to_state(w.c_tx_fsm),
                      ok ? SessionEvent::kVerifyOk : SessionEvent::kVerifyFail);
      w.c_tx_fsm = static_cast<std::uint8_t>(st.next);
      w.c_flags = static_cast<std::uint8_t>(w.c_flags | kClientTxSettled);
      return;
    }
  }
}

}  // namespace

std::string frame_name(std::uint8_t frame) {
  if (frame == kFrameEnrollBegin) return "EnrollBegin";
  if (frame >= kFrameEnrollChallenge0 &&
      frame < kFrameEnrollChallenge0 + kEnrollNoncePool) {
    return "EnrollChallenge(n" +
           std::to_string(frame - kFrameEnrollChallenge0) + ")";
  }
  if (frame >= kFrameEnrollCompleteGenuine0 &&
      frame < kFrameEnrollCompleteGenuine0 + kEnrollNoncePool) {
    return "EnrollComplete(quote:n" +
           std::to_string(frame - kFrameEnrollCompleteGenuine0) + ")";
  }
  if (frame == kFrameEnrollCompleteGarbage) return "EnrollComplete(garbage)";
  if (frame == kFrameEnrollResultOk) return "EnrollResult(ok)";
  if (frame == kFrameEnrollResultReject) return "EnrollResult(reject)";
  if (frame == kFrameTxSubmit) return "TxSubmit";
  if (frame >= kFrameTxChallenge0 &&
      frame < kFrameTxChallenge0 + kTxNoncePool) {
    return "TxChallenge(m" + std::to_string(frame - kFrameTxChallenge0) + ")";
  }
  if (frame >= kFrameTxConfirm0 && frame < kFrameTxResultOk) {
    const std::uint8_t sig = tx_confirm_sig(frame);
    const std::string verdict =
        tx_confirm_rejected(frame) ? "rejected" : "confirmed";
    if (sig == kSigGarbage) {
      return "TxConfirm(" +
             (tx_confirm_rejected(frame) ? std::string("none")
                                         : std::string("garbage")) +
             "," + verdict + ")";
    }
    return "TxConfirm(sig:m" + std::to_string(sig) + "," + verdict + ")";
  }
  if (frame == kFrameTxResultOk) return "TxResult(ok)";
  if (frame == kFrameTxResultReject) return "TxResult(reject)";
  return "?";
}

const char* action_kind_name(ActionKind kind) {
  switch (kind) {
    case ActionKind::kClientStart: return "client: begin enrollment";
    case ActionKind::kClientSubmitTx: return "client: submit transaction";
    case ActionKind::kClientConfirm: return "human: confirm challenge";
    case ActionKind::kClientReject: return "human: reject challenge";
    case ActionKind::kDeliverToSp: return "attacker: deliver to SP";
    case ActionKind::kDeliverToClient: return "attacker: deliver to client";
  }
  return "?";
}

const char* invariant_name(Invariant invariant) {
  switch (invariant) {
    case Invariant::kNone: return "none";
    case Invariant::kTxExactlyOnce: return "tx-exactly-once";
    case Invariant::kNoForgedConfirm: return "no-forged-confirm";
    case Invariant::kNoUnattestedEnroll: return "no-unattested-enroll";
  }
  return "?";
}

World initial_world() {
  World w;
  // The begin frames carry no secret (a client id is public); the
  // attacker can craft them from the start. Pre-marking them known keeps
  // "the client sent one" and "the attacker crafted one" from splitting
  // otherwise-identical states.
  w.learn(kFrameEnrollBegin);
  w.learn(kFrameTxSubmit);
  return w;
}

std::size_t enumerate_actions(const World& w, Action* out) {
  std::size_t n = 0;
  // Honest-party moves first, then deliveries in frame order: a fixed
  // total order makes every exploration deterministic.
  // The client (re)starts enrollment from idle or after a refused
  // attempt, and submits a fresh transaction whenever no exchange is in
  // flight -- the shared FSM's kBegin edge covers both (a real client
  // makes many transactions).
  if (to_state(w.c_enroll_fsm) == SessionState::kIdle ||
      to_state(w.c_enroll_fsm) == SessionState::kFailed) {
    out[n++] = {ActionKind::kClientStart, kNoFrame};
  }
  if ((w.c_flags & kClientEnrolled) != 0 &&
      to_state(w.c_tx_fsm) != SessionState::kChallengeSent) {
    out[n++] = {ActionKind::kClientSubmitTx, kNoFrame};
  }
  if (to_state(w.c_tx_fsm) == SessionState::kChallengeSent &&
      w.c_tx_nonce != kNoNonce && (w.c_flags & kClientVerdictGiven) == 0) {
    out[n++] = {ActionKind::kClientConfirm, kNoFrame};
    out[n++] = {ActionKind::kClientReject, kNoFrame};
  }
  // Deliveries to the SP: begins and garbage are always craftable;
  // genuine evidence and signatures only once observed on the wire.
  out[n++] = {ActionKind::kDeliverToSp, kFrameEnrollBegin};
  for (std::uint8_t i = 0; i < kEnrollNoncePool; ++i) {
    const auto f =
        static_cast<std::uint8_t>(kFrameEnrollCompleteGenuine0 + i);
    if (w.knows(f)) out[n++] = {ActionKind::kDeliverToSp, f};
  }
  out[n++] = {ActionKind::kDeliverToSp, kFrameEnrollCompleteGarbage};
  out[n++] = {ActionKind::kDeliverToSp, kFrameTxSubmit};
  for (std::uint8_t sig = 0; sig < kTxNoncePool; ++sig) {
    // The verdict byte is plaintext: knowing a signature under either
    // verdict lets the attacker splice it onto both.
    if (w.knows(tx_confirm_frame(sig, 0)) ||
        w.knows(tx_confirm_frame(sig, 1))) {
      out[n++] = {ActionKind::kDeliverToSp, tx_confirm_frame(sig, 0)};
      out[n++] = {ActionKind::kDeliverToSp, tx_confirm_frame(sig, 1)};
    }
  }
  out[n++] = {ActionKind::kDeliverToSp, tx_confirm_frame(kSigGarbage, 0)};
  out[n++] = {ActionKind::kDeliverToSp, tx_confirm_frame(kSigGarbage, 1)};
  // Deliveries to the client: any observed response frame (challenges
  // and results are unforgeable -- minting one needs the SP identity the
  // secure transport pins -- but replayable at will).
  const auto to_client = [&](std::uint8_t f) {
    if (w.knows(f)) out[n++] = {ActionKind::kDeliverToClient, f};
  };
  for (std::uint8_t i = 0; i < kEnrollNoncePool; ++i) {
    to_client(static_cast<std::uint8_t>(kFrameEnrollChallenge0 + i));
  }
  to_client(kFrameEnrollResultOk);
  to_client(kFrameEnrollResultReject);
  for (std::uint8_t i = 0; i < kTxNoncePool; ++i) {
    to_client(static_cast<std::uint8_t>(kFrameTxChallenge0 + i));
  }
  to_client(kFrameTxResultOk);
  to_client(kFrameTxResultReject);
  return n;
}

StepOutcome step_world(const World& world, Action action,
                       const SeededBugs& bugs) {
  StepOutcome out;
  out.next = world;
  World& w = out.next;
  switch (action.kind) {
    case ActionKind::kClientStart: {
      const proto::Step st = proto::step(
          SessionPhase::kEnroll, to_state(w.c_enroll_fsm), SessionEvent::kBegin);
      if (st.action == proto::SessionAction::kSendChallenge) {
        w.c_enroll_fsm = static_cast<std::uint8_t>(st.next);
        w.c_enroll_nonce = kNoNonce;  // fresh exchange awaits its challenge
        w.learn(kFrameEnrollBegin);
      }
      break;
    }
    case ActionKind::kClientSubmitTx: {
      const proto::Step st = proto::step(
          SessionPhase::kConfirm, to_state(w.c_tx_fsm), SessionEvent::kBegin);
      if (st.action == proto::SessionAction::kSendChallenge) {
        w.c_tx_fsm = static_cast<std::uint8_t>(st.next);
        w.c_tx_nonce = kNoNonce;  // fresh exchange: new challenge, new verdict
        w.c_flags = static_cast<std::uint8_t>(
            w.c_flags & ~(kClientVerdictGiven | kClientTxSettled));
        w.learn(kFrameTxSubmit);
      }
      break;
    }
    case ActionKind::kClientConfirm:
    case ActionKind::kClientReject: {
      const proto::Step st =
          proto::step(SessionPhase::kConfirm, to_state(w.c_tx_fsm),
                      SessionEvent::kComplete);
      if (st.action != proto::SessionAction::kVerify) break;
      w.c_tx_fsm = static_cast<std::uint8_t>(st.next);
      w.c_flags = static_cast<std::uint8_t>(w.c_flags | kClientVerdictGiven);
      if (action.kind == ActionKind::kClientConfirm) {
        // The human confirmed: the device signs exactly this challenge.
        w.c_signed_mask =
            static_cast<std::uint8_t>(w.c_signed_mask | (1u << w.c_tx_nonce));
        w.learn(tx_confirm_frame(w.c_tx_nonce, 0));
      } else {
        // Rejected confirmations carry no signature.
        w.learn(tx_confirm_frame(kSigGarbage, 1));
      }
      break;
    }
    case ActionKind::kDeliverToSp:
      out.violated = sp_handle(w, action.frame, bugs);
      break;
    case ActionKind::kDeliverToClient:
      client_handle(w, action.frame);
      break;
  }
  out.changed = !(out.next == world);
  return out;
}

}  // namespace tp::model
