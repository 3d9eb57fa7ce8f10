// ShardState: one serialization for everything a verifier shard must
// not forget, shared by crash recovery and shard handoff.
//
// The durable-state vocabulary: enroll/tx sessions (with their cached
// idempotent replies), enrolled attestation keys, replay-cache digests
// and SubmitDedup rows. Shard handoff and crash recovery move exactly
// this set, so it is one type with a byte format and two producers: a
// snapshot (the whole ShardState, CRC-sealed) and journal record bodies
// (one frame's worth of deltas). Recovery = deserialize snapshot, then
// fold journal records into it via ShardStateBuilder; a handoff is
// ServiceProvider::extract_for_handoff. Either result feeds the one
// ServiceProvider::import_state.
//
// Invariants the builder maintains:
//   - Sessions materialize in ascending (deadline, arrival) order -- the
//     order SessionTable::restore() wants so LRU order == deadline order
//     survives recovery. A session's arrival token is armed by its
//     begin-type record and kept by its settle (settling does not
//     re-arm the eviction clock, matching the live table).
//   - Records are idempotent: a duplicated record (same seq) is skipped,
//     and records already covered by the snapshot (seq <= last_seq) are
//     skipped, which is what makes the compaction crash window
//     ("snapshot written, journal not yet truncated") safe.
//   - Counters (next_tx_id, tx_accepted_total, source_now) max-merge, so
//     replaying any suffix of history lands on the final value.
//   - Dedup rows come out in journal order, one per (client, digest) key,
//     at that key's LAST write: restore replays them into the SP's
//     direct-mapped dedup table, where the last write to a slot must win
//     over every row that collided with it earlier.
//
// Enrolled keys are carried as opaque serialized-AttestationKey blobs:
// the store layer never parses them, so it depends on proto (session
// layout) but not on tpm.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "proto/session_table.h"
#include "store/journal.h"
#include "util/bytes.h"
#include "util/result.h"

namespace tp::store {

using SessionKey = proto::SessionTable::Key;
using SessionEntry = proto::SessionTable::Entry;
using ReplayDigest = std::array<std::uint8_t, 16>;

/// One admitted client: identity plus its serialized AttestationKey
/// (tpm::AttestationKey::serialize). An empty blob never appears in a
/// ShardState -- rejected enrollments leave only their terminal session.
struct EnrolledClient {
  std::string id;
  Bytes key_blob;
};

/// One SubmitDedup row: (submitting client tag, payload digest) -> the
/// tx id its challenge was issued under.
struct DedupRow {
  SessionKey client{};
  SessionKey digest{};
  std::uint64_t tx_id = 0;

  bool operator==(const DedupRow& other) const = default;
};

struct ShardState {
  std::vector<SessionEntry> enroll_sessions;  // ascending deadline
  std::vector<SessionEntry> tx_sessions;      // ascending deadline
  std::vector<EnrolledClient> enrolled;       // sorted by id
  std::vector<ReplayDigest> replay_digests;   // oldest first (FIFO order)
  std::vector<DedupRow> dedup;
  /// Virtual-clock position of the source shard when the state was
  /// captured; import_state advances the destination to it.
  std::int64_t source_now_ns = 0;
  std::uint64_t next_tx_id = 0;
  std::uint64_t tx_accepted_total = 0;
  /// Highest journal seq this state covers (snapshot compaction cursor).
  std::uint64_t last_seq = 0;

  bool empty() const {
    return enroll_sessions.empty() && tx_sessions.empty() &&
           enrolled.empty() && replay_digests.empty() && dedup.empty() &&
           next_tx_id == 0 && tx_accepted_total == 0;
  }
};

/// Snapshot codec: versioned, CRC32-C sealed. deserialize returns a
/// typed error (kCryptoError for CRC/magic damage, kInvalidArgument for
/// structural damage) rather than ever trusting corrupt bytes.
Bytes serialize_shard_state(const ShardState& state);
Result<ShardState> deserialize_shard_state(BytesView blob);

/// Journal record bodies (the payload after the seq+type header). Every
/// body leads with the shard's virtual-clock position so recovery can
/// re-arm deadlines against the clock the sessions were created under.
Bytes enroll_begin_body(std::int64_t now_ns, const SessionKey& key,
                        const proto::SessionTable::Session& session);
Bytes enroll_settle_body(std::int64_t now_ns, const SessionKey& key,
                         const proto::SessionTable::Session& session,
                         std::string_view client_id, BytesView key_blob);
Bytes tx_begin_body(std::int64_t now_ns, const SessionKey& key,
                    const proto::SessionTable::Session& session,
                    std::uint64_t next_tx_id, const DedupRow* dedup);
Bytes tx_settle_body(std::int64_t now_ns, const SessionKey& key,
                     const proto::SessionTable::Session& session,
                     std::uint64_t next_tx_id, std::uint64_t tx_accepted_total,
                     const ReplayDigest* digest);
Bytes replay_digest_body(std::int64_t now_ns, const ReplayDigest& digest);
Bytes dedup_row_body(std::int64_t now_ns, const DedupRow& row);

/// Folds decoded journal records into a base state (usually the
/// snapshot). apply() returns a typed error for a structurally invalid
/// body -- the caller treats it like any other corrupt record (keep the
/// prefix, surface the fault).
class ShardStateBuilder {
 public:
  explicit ShardStateBuilder(ShardState base);

  /// Applies one record. Records with seq <= the base snapshot's
  /// last_seq or <= the last applied seq are skipped (idempotence);
  /// skipped records still return ok.
  Status apply(const JournalRecord& record);

  /// Records actually folded in (excludes skipped duplicates).
  std::uint64_t applied() const { return applied_; }

  /// Materializes the final state (sessions sorted, enrolled sorted by
  /// id). The builder is spent afterwards.
  ShardState take();

 private:
  struct SessionRec {
    SessionEntry entry;
    std::uint64_t token = 0;  // arrival order for deadline ties
  };
  struct SessionMap {
    std::vector<SessionRec> recs;
    std::unordered_map<std::string, std::size_t> index;  // key bytes -> rec
  };

  void upsert(SessionMap& map, const SessionKey& key,
              const proto::SessionTable::Session& session, bool arm_token);
  void add_digest(const ReplayDigest& digest);
  void add_dedup(const DedupRow& row);

  SessionMap enroll_;
  SessionMap tx_;
  std::vector<EnrolledClient> enrolled_;
  std::unordered_map<std::string, std::size_t> enrolled_index_;
  std::vector<ReplayDigest> digests_;
  std::unordered_map<std::string, std::size_t> digest_index_;
  std::vector<DedupRow> dedup_;
  std::vector<bool> dedup_live_;  // false: superseded by a later write
  std::unordered_map<std::string, std::size_t> dedup_index_;
  std::int64_t source_now_ns_ = 0;
  std::uint64_t next_tx_id_ = 0;
  std::uint64_t tx_accepted_total_ = 0;
  std::uint64_t last_seq_ = 0;
  std::uint64_t next_token_ = 0;
  std::uint64_t applied_ = 0;
};

}  // namespace tp::store
