// ShardState: the one serialized form of everything a verifier shard
// must not forget, shared by crash recovery and shard handoff.
//
// The durable-state vocabulary: enroll/tx sessions (with their cached
// idempotent replies), enrolled attestation keys, replay-cache digests
// and SubmitDedup rows, plus three counters. Shard handoff and crash
// recovery move exactly this set, so it is one type with one byte
// format, its body, inside two seals:
//
//   - a snapshot: [u32 magic][u16 version][u64 last_seq][body][u32 crc32c],
//     the whole state (serialize_shard_state);
//   - a journal record: [u32 len][u32 crc32c][u64 seq][u8 type][body]
//     (store/journal.h), a delta holding only what one SP frame changed.
//
// Recovery = deserialize the snapshot, then merge every journal delta
// into it via ShardStateBuilder; a handoff is
// ServiceProvider::extract_for_handoff. Either result feeds the one
// ServiceProvider::import_state.
//
// The builder's one merge, used for the snapshot and for every record:
//   - Sessions upsert by key and materialize in ascending (deadline,
//     arrival) order -- the order SessionTable::restore() wants so LRU
//     order == deadline order survives recovery. A session takes a fresh
//     arrival position when it is new or arrives in kChallengeSent: only
//     SessionTable::begin writes that state, and begin moves the slot to
//     the LRU back. A settled session (kDone / kFailed) keeps the
//     position its begin gave it, as in the live table.
//   - Enrolled clients insert or replace by id.
//   - Replay digests: the first copy wins, FIFO order.
//   - Dedup rows come out one per (client, digest) key, at that key's
//     LAST write: restore replays them into the SP's direct-mapped dedup
//     table, where the last write to a slot must win over every row that
//     collided with it earlier.
//   - Counters (source_now_ns, next_tx_id, tx_accepted_total) max-merge,
//     so replaying any suffix of history lands on the final value.
// Records are idempotent: one with seq <= the snapshot's last_seq or
// <= the last applied seq is skipped, which is what makes the
// compaction crash window ("snapshot written, journal not yet
// truncated") safe.
//
// Enrolled keys are carried as opaque serialized-AttestationKey blobs:
// the store layer never parses them, so it depends on proto (session
// layout) but not on tpm.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
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

/// A journal record body: `delta` (what one frame changed) in the body
/// codec, the one serialized form of shard state, which the snapshot
/// seals too. Body layout:
///
///   [u64 source_now_ns][u64 next_tx_id][u64 tx_accepted_total]
///   then five u32-counted lists: enroll sessions, tx sessions, enrolled
///   clients (u32-prefixed id and key blob), replay digests (16 B), dedup
///   rows (client, digest, u64 tx id).
///
/// A session is its key, state, deadline, client tag, u8 nonce length +
/// nonce, tx digest, request digest and u16 response length + cached
/// response; nonce and response are written by length, not as their
/// fixed-size arrays. last_seq is not part of the body: the snapshot
/// seal and the record frame carry the seq.
Bytes encode_shard_delta(const ShardState& delta);

/// Snapshot codec: the body inside a versioned, CRC32-C seal.
/// deserialize returns a typed error rather than ever trusting corrupt
/// bytes: kCryptoError for CRC or magic damage, kUnsupported for another
/// version (no older snapshot is read back), kInvalidArgument for
/// structural damage, a short blob included.
Bytes serialize_shard_state(const ShardState& state);
Result<ShardState> deserialize_shard_state(BytesView blob);

/// Merges ShardStates: the base (usually the snapshot) at construction,
/// then one decoded journal delta per apply(). apply() returns a typed
/// error (kInvalidArgument) for a body that does not decode -- the
/// caller treats it like any other corrupt record (keep the prefix,
/// surface the fault).
class ShardStateBuilder {
 public:
  explicit ShardStateBuilder(ShardState base);

  /// Merges one record's delta. Records with seq <= the base's last_seq
  /// or <= the last applied seq are skipped (idempotence); skipped
  /// records still return ok. The body decodes whole before anything
  /// merges, so an invalid record never half-applies.
  Status apply(const JournalRecord& record);

  /// Records actually merged (excludes skipped duplicates).
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

  void merge(ShardState&& delta);
  void upsert(SessionMap& map, SessionEntry&& entry);

  SessionMap enroll_;
  SessionMap tx_;
  std::vector<EnrolledClient> enrolled_;
  std::unordered_map<std::string, std::size_t> enrolled_index_;
  std::vector<ReplayDigest> digests_;
  std::unordered_set<std::string> digest_seen_;
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
