#include "proto/sp_core.h"

namespace tp::proto {

const char* sp_action_name(SpActionKind kind) {
  switch (kind) {
    case SpActionKind::kNone: return "none";
    case SpActionKind::kOpenSession: return "open_session";
    case SpActionKind::kStoreNonce: return "store_nonce";
    case SpActionKind::kSendFrame: return "send_frame";
    case SpActionKind::kVerifySignature: return "verify_signature";
    case SpActionKind::kSealResponse: return "seal_response";
    case SpActionKind::kReplayResponse: return "replay_response";
    case SpActionKind::kApplyState: return "apply_state";
    case SpActionKind::kRecordSignature: return "record_signature";
    case SpActionKind::kCountAccept: return "count_accept";
    case SpActionKind::kCountReject: return "count_reject";
  }
  return "unknown";
}

}  // namespace tp::proto
