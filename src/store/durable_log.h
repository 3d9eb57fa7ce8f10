// DurableLog: a shard's write-ahead journal plus compacted snapshot,
// glued to one StorageBackend.
//
// Lifecycle:
//   - recover() reads snapshot + journal and folds them into a
//     ShardState (the longest valid prefix; torn tails and corrupt
//     records are tolerated and reported via recovery_stats()). It also
//     positions the append cursor past everything recovered, so a
//     restarted shard continues the same seq space.
//   - stage() frames one record with the seq it will get and buffers
//     it; commit() hands every staged record to the backend in ONE
//     append_journal call (one write + one fdatasync on FileBackend),
//     durable before return. The ServiceProvider hands stage() one
//     ShardState delta per mutating frame -- the record body is that
//     delta in the snapshot's body codec, so the SP never sees a record
//     layout -- and commits once per handle_frame / handle_frame_batch
//     call, before any of the call's replies is released. That ordering
//     IS the write-ahead contract, and one sync per drained batch is the
//     group commit. append() is stage + commit for a single
//     already-encoded record.
//   - compact() replaces snapshot+journal with the current state. The
//     crash window between write_snapshot and reset_journal is safe:
//     the snapshot carries last_seq and replay skips covered records.
//
// One DurableLog belongs to one shard, whose SP runs behind one svc
// worker thread, so appends are not internally synchronized beyond what
// the backend provides.
#pragma once

#include <cstdint>
#include <string>

#include "store/journal.h"
#include "store/shard_state.h"
#include "store/storage_backend.h"
#include "util/result.h"

namespace tp::store {

struct DurableLogConfig {
  StorageBackend* backend = nullptr;  // required, caller-owned
  /// Journal size that triggers should_compact(); 0 disables automatic
  /// compaction (the journal then only shrinks via explicit compact()).
  /// The trigger additionally requires the journal to have reached the
  /// last snapshot's size: a snapshot costs O(state) bytes to write, so
  /// compacting a journal smaller than the snapshot would spend more
  /// I/O than it reclaims. The ratio rule bounds amortized compaction
  /// cost at one snapshot byte per journal byte regardless of how this
  /// floor relates to the state size.
  std::uint64_t compact_journal_bytes = 1u << 20;
};

/// What the last recover() found; surfaced as sp.recovery.* metrics and
/// printed by verifier_daemon at startup.
struct RecoveryStats {
  std::uint64_t replayed_records = 0;   // journal records folded in
  std::uint64_t truncated_tail_bytes = 0;  // torn bytes dropped
  bool had_corruption = false;
  std::string corruption;               // typed description when corrupt
  std::uint64_t snapshot_bytes = 0;
  /// Virtual-time gap between the snapshot and the newest journal
  /// record -- how much history replay had to cover.
  std::int64_t snapshot_age_ns = 0;
};

class DurableLog {
 public:
  explicit DurableLog(DurableLogConfig config);

  /// Folds snapshot + journal into a ShardState. A torn tail or a
  /// corrupt record keeps the valid prefix (details in
  /// recovery_stats()); an unreadable *snapshot* is a hard error --
  /// there is no safe prefix of a snapshot.
  Result<ShardState> recover();

  const RecoveryStats& recovery_stats() const { return stats_; }

  /// Frames one record with the seq it will get once committed and adds
  /// it to the pending batch. Nothing reaches the backend yet.
  void stage(RecordType type, BytesView body);
  /// Stages `delta` (what one frame changed) as one kShardDelta record;
  /// its last_seq is ignored, the record's seq takes its place.
  void stage(const ShardState& delta);

  /// Persists every staged record with ONE backend append_journal call;
  /// durable before return, a no-op when nothing is staged. The batch is
  /// the concatenation of the framed records, so the journal bytes equal
  /// those of one append() per record. May throw CrashInjected /
  /// std::runtime_error from the backend; either way the staged records
  /// are discarded and no seq is consumed (the backend may have kept a
  /// prefix of the batch, which the next recover() folds in or drops).
  void commit();

  /// stage + commit: one record, durable before return.
  void append(RecordType type, BytesView body);

  /// Seq the next committed record will use.
  std::uint64_t next_seq() const { return next_seq_; }
  std::uint64_t records_appended() const { return records_appended_; }

  bool should_compact() const;

  /// Commits any staged records, then snapshots `state` (stamped with
  /// the seq cursor) and resets the journal.
  void compact(const ShardState& state);

  StorageBackend& backend() { return *backend_; }

 private:
  DurableLogConfig config_;
  StorageBackend* backend_;
  RecoveryStats stats_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t records_appended_ = 0;
  /// Framed records awaiting commit(); they carry seqs next_seq_ ..
  /// next_seq_ + staged_records_ - 1.
  Bytes staged_;
  std::uint64_t staged_records_ = 0;
  /// Size of the newest snapshot this log has seen (written by
  /// compact() or read back by recover()); input to the ratio rule.
  std::uint64_t last_snapshot_bytes_ = 0;
};

}  // namespace tp::store
