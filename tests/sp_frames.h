// Typed protocol exchanges with a ServiceProvider through its only entry
// point, handle_frame: each helper builds the request frame, hands it to
// the SP and decodes the typed reply. Also the raw TxSubmit/TxConfirm
// frame builders the serving-runtime suites send through a svc or a
// cluster.
//
// A reply of the wrong type or shape throws std::runtime_error, which
// gtest reports as a failure of the running test (and which ends a bench
// loudly). Header-only and gtest-free, so benches may include it too.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/messages.h"
#include "sp/service_provider.h"
#include "util/bytes.h"

namespace tp::test {

inline Bytes submit_frame(const std::string& client,
                          const std::string& summary) {
  core::TxSubmit submit;
  submit.client_id = client;
  submit.summary = summary;
  submit.payload = bytes_of("payload:" + summary);
  return core::envelope(core::MsgType::kTxSubmit, submit.serialize());
}

inline Bytes confirm_frame(const std::string& client, std::uint64_t tx_id,
                           core::Verdict verdict = core::Verdict::kConfirmed) {
  core::TxConfirm confirm;
  confirm.client_id = client;
  confirm.tx_id = tx_id;
  confirm.verdict = verdict;
  return core::envelope(core::MsgType::kTxConfirm, confirm.serialize());
}

/// Opens a reply frame and deserializes it as `Reply`; throws unless the
/// frame is well formed and of type `expected`.
template <typename Reply>
Reply decode_reply(BytesView frame, core::MsgType expected) {
  auto opened = core::open_envelope(frame);
  if (!opened.ok() || opened.value().first != expected) {
    throw std::runtime_error("reply frame is not of the expected type");
  }
  auto reply = Reply::deserialize(opened.value().second);
  if (!reply.ok()) {
    throw std::runtime_error("reply frame does not deserialize: " +
                             reply.error().to_string());
  }
  return reply.take();
}

/// The tx id a TxChallenge reply carries (throws on any other reply).
inline std::uint64_t challenge_tx_id(BytesView reply) {
  return decode_reply<core::TxChallenge>(reply, core::MsgType::kTxChallenge)
      .tx_id;
}

/// True iff `reply` is a TxResult that accepted (never throws).
inline bool result_accepted(BytesView reply) {
  auto opened = core::open_envelope(reply);
  if (!opened.ok() || opened.value().first != core::MsgType::kTxResult) {
    return false;
  }
  auto result = core::TxResult::deserialize(opened.value().second);
  return result.ok() && result.value().accepted;
}

inline core::EnrollChallenge begin_enrollment(sp::ServiceProvider& sp,
                                              const core::EnrollBegin& msg) {
  return decode_reply<core::EnrollChallenge>(
      sp.handle_frame(core::envelope(core::MsgType::kEnrollBegin,
                                     msg.serialize())),
      core::MsgType::kEnrollChallenge);
}

inline core::EnrollResult complete_enrollment(
    sp::ServiceProvider& sp, const core::EnrollComplete& msg) {
  return decode_reply<core::EnrollResult>(
      sp.handle_frame(core::envelope(core::MsgType::kEnrollComplete,
                                     msg.serialize())),
      core::MsgType::kEnrollResult);
}

inline core::TxChallenge begin_transaction(sp::ServiceProvider& sp,
                                           const core::TxSubmit& msg) {
  return decode_reply<core::TxChallenge>(
      sp.handle_frame(
          core::envelope(core::MsgType::kTxSubmit, msg.serialize())),
      core::MsgType::kTxChallenge);
}

inline core::TxResult complete_transaction(sp::ServiceProvider& sp,
                                           const core::TxConfirm& msg) {
  return decode_reply<core::TxResult>(
      sp.handle_frame(
          core::envelope(core::MsgType::kTxConfirm, msg.serialize())),
      core::MsgType::kTxResult);
}

}  // namespace tp::test
