#include "store/durable_log.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace tp::store {

DurableLog::DurableLog(DurableLogConfig config)
    : config_(config), backend_(config.backend) {
  if (backend_ == nullptr) {
    throw std::invalid_argument("DurableLog: backend is required");
  }
}

Result<ShardState> DurableLog::recover() {
  stats_ = RecoveryStats{};
  // Records staged by a predecessor that died before committing were
  // never acked; they must not ride along with the next commit.
  staged_.clear();
  staged_records_ = 0;
  ShardState base;
  const Bytes snapshot = backend_->read_snapshot();
  if (!snapshot.empty()) {
    auto parsed = deserialize_shard_state(snapshot);
    if (!parsed.ok()) {
      return Error{parsed.error().code,
                   "snapshot unreadable: " + parsed.error().message};
    }
    base = parsed.take();
    stats_.snapshot_bytes = snapshot.size();
    last_snapshot_bytes_ = snapshot.size();
  }
  const std::int64_t snapshot_now = base.source_now_ns;
  std::uint64_t last_seq = base.last_seq;

  const Bytes journal = backend_->read_journal();
  const JournalDecode decoded = decode_journal(journal);
  stats_.truncated_tail_bytes = journal.size() - decoded.valid_bytes;
  if (decoded.corruption.has_value()) {
    stats_.had_corruption = true;
    stats_.corruption = decoded.corruption->to_string();
  }

  ShardStateBuilder builder(std::move(base));
  for (const JournalRecord& record : decoded.records) {
    if (Status st = builder.apply(record); !st.ok()) {
      // A framed record whose body will not parse is corruption of the
      // same kind the CRC catches; keep the prefix applied so far.
      stats_.had_corruption = true;
      stats_.corruption = "journal record body (seq " +
                          std::to_string(record.seq) +
                          "): " + st.error().message;
      break;
    }
    last_seq = std::max(last_seq, record.seq);
  }
  stats_.replayed_records = builder.applied();

  ShardState state = builder.take();
  stats_.snapshot_age_ns =
      state.source_now_ns > snapshot_now ? state.source_now_ns - snapshot_now
                                         : 0;
  next_seq_ = std::max(next_seq_, last_seq + 1);
  if (stats_.truncated_tail_bytes > 0 || stats_.had_corruption) {
    // Amputate the torn/corrupt tail NOW: appends land at the journal's
    // end, so leaving the garbage in place would orphan every record a
    // later incarnation writes -- the decoder stops at the damage, and
    // the recovery after next would silently lose everything appended
    // beyond it. Snapshotting the recovered state and resetting the
    // journal makes the damage unreachable instead. (Crash-safe: the
    // snapshot is written before the reset, and replaying the old
    // journal on top of the new snapshot is a no-op -- every surviving
    // record's seq is <= the snapshot's last_seq.)
    compact(state);
  }
  return state;
}

void DurableLog::stage(RecordType type, BytesView body) {
  tp::append(staged_, encode_record(next_seq_ + staged_records_, type, body));
  ++staged_records_;
}

void DurableLog::stage(const ShardState& delta) {
  stage(RecordType::kShardDelta, encode_shard_delta(delta));
}

void DurableLog::commit() {
  if (staged_records_ == 0) return;
  // Take the batch out first, so a throwing backend leaves nothing
  // staged for the next commit.
  const std::uint64_t records = std::exchange(staged_records_, 0);
  const Bytes batch = std::exchange(staged_, Bytes{});
  backend_->append_journal(batch);
  // Only advance the cursor once the backend accepted the batch: a torn
  // commit must not consume seqs, or a restart that reuses this
  // DurableLog would leave a gap (recover() re-positions the cursor past
  // whatever whole records the tear kept).
  next_seq_ += records;
  records_appended_ += records;
}

void DurableLog::append(RecordType type, BytesView body) {
  stage(type, body);
  commit();
}

bool DurableLog::should_compact() const {
  if (config_.compact_journal_bytes == 0) return false;
  const std::uint64_t journal = backend_->journal_bytes();
  // Ratio rule (see DurableLogConfig): the journal must also have
  // outgrown the last snapshot, or compaction writes more bytes than it
  // reclaims and steady-state overhead degenerates to O(state) per
  // journaled byte.
  return journal >= config_.compact_journal_bytes &&
         journal >= last_snapshot_bytes_;
}

void DurableLog::compact(const ShardState& state) {
  commit();
  ShardState stamped = state;
  stamped.last_seq = next_seq_ - 1;
  const Bytes snapshot = serialize_shard_state(stamped);
  backend_->write_snapshot(snapshot);
  backend_->reset_journal();
  last_snapshot_bytes_ = snapshot.size();
}

}  // namespace tp::store
