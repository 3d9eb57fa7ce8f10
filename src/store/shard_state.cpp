#include "store/shard_state.h"

#include <algorithm>
#include <utility>

#include "util/serial.h"

namespace tp::store {
namespace {

using Session = proto::SessionTable::Session;

constexpr std::uint32_t kSnapshotMagic = 0x54505353;  // "TPSS"
constexpr std::uint16_t kSnapshotVersion = 1;
// Journal upserts order after every snapshot entry regardless of seq
// values (snapshot tokens are small indices).
constexpr std::uint64_t kJournalTokenBase = 1ull << 63;

std::string map_key(BytesView bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

std::string map_key(const SessionKey& key) {
  return map_key(BytesView(key.data(), key.size()));
}

void write_session(BinaryWriter& w, const SessionKey& key,
                   const Session& s) {
  w.raw(BytesView(key.data(), key.size()));
  w.u8(static_cast<std::uint8_t>(s.state));
  w.u64(static_cast<std::uint64_t>(s.deadline.ns));
  w.raw(BytesView(s.client.data(), s.client.size()));
  w.u8(s.nonce_len);
  w.raw(BytesView(s.nonce.data(), s.nonce.size()));
  w.raw(BytesView(s.tx_digest.data(), s.tx_digest.size()));
  w.raw(BytesView(s.request_digest.data(), s.request_digest.size()));
  w.u16(s.response_len);
  w.raw(BytesView(s.response.data(), s.response.size()));
}

template <std::size_t N>
Status read_array(BinaryReader& r, std::array<std::uint8_t, N>& out) {
  auto v = r.view(N);
  if (!v.ok()) return v.error();
  std::copy(v.value().begin(), v.value().end(), out.begin());
  return Status::ok_status();
}

Status read_session(BinaryReader& r, SessionKey& key, Session& s) {
  if (Status st = read_array(r, key); !st.ok()) return st;
  auto state = r.u8();
  if (!state.ok()) return state.error();
  if (state.value() >= proto::kSessionStateCount) {
    return Status(Err::kInvalidArgument, "session state out of range");
  }
  s.state = static_cast<proto::SessionState>(state.value());
  auto deadline = r.u64();
  if (!deadline.ok()) return deadline.error();
  s.deadline.ns = static_cast<std::int64_t>(deadline.value());
  if (Status st = read_array(r, s.client); !st.ok()) return st;
  auto nonce_len = r.u8();
  if (!nonce_len.ok()) return nonce_len.error();
  if (nonce_len.value() > proto::SessionTable::kMaxNonceLen) {
    return Status(Err::kInvalidArgument, "nonce length out of range");
  }
  s.nonce_len = nonce_len.value();
  if (Status st = read_array(r, s.nonce); !st.ok()) return st;
  if (Status st = read_array(r, s.tx_digest); !st.ok()) return st;
  if (Status st = read_array(r, s.request_digest); !st.ok()) return st;
  auto response_len = r.u16();
  if (!response_len.ok()) return response_len.error();
  if (response_len.value() > proto::SessionTable::kMaxCachedResponseLen) {
    return Status(Err::kInvalidArgument, "cached response length out of range");
  }
  s.response_len = response_len.value();
  if (Status st = read_array(r, s.response); !st.ok()) return st;
  return Status::ok_status();
}

void write_dedup(BinaryWriter& w, const DedupRow& row) {
  w.raw(BytesView(row.client.data(), row.client.size()));
  w.raw(BytesView(row.digest.data(), row.digest.size()));
  w.u64(row.tx_id);
}

Status read_dedup(BinaryReader& r, DedupRow& row) {
  if (Status st = read_array(r, row.client); !st.ok()) return st;
  if (Status st = read_array(r, row.digest); !st.ok()) return st;
  auto tx = r.u64();
  if (!tx.ok()) return tx.error();
  row.tx_id = tx.value();
  return Status::ok_status();
}

}  // namespace

Bytes serialize_shard_state(const ShardState& state) {
  BinaryWriter w;
  w.u32(kSnapshotMagic);
  w.u16(kSnapshotVersion);
  w.u64(state.last_seq);
  w.u64(static_cast<std::uint64_t>(state.source_now_ns));
  w.u64(state.next_tx_id);
  w.u64(state.tx_accepted_total);
  w.u32(static_cast<std::uint32_t>(state.enroll_sessions.size()));
  for (const SessionEntry& e : state.enroll_sessions) {
    write_session(w, e.key, e.session);
  }
  w.u32(static_cast<std::uint32_t>(state.tx_sessions.size()));
  for (const SessionEntry& e : state.tx_sessions) {
    write_session(w, e.key, e.session);
  }
  w.u32(static_cast<std::uint32_t>(state.enrolled.size()));
  for (const EnrolledClient& c : state.enrolled) {
    w.var_string(c.id);
    w.var_bytes(c.key_blob);
  }
  w.u32(static_cast<std::uint32_t>(state.replay_digests.size()));
  for (const ReplayDigest& d : state.replay_digests) {
    w.raw(BytesView(d.data(), d.size()));
  }
  w.u32(static_cast<std::uint32_t>(state.dedup.size()));
  for (const DedupRow& row : state.dedup) write_dedup(w, row);
  // Seal the whole blob: a snapshot is read exactly once per recovery,
  // so the CRC is cheap insurance against silent media damage.
  const std::uint32_t crc = crc32c(w.data());
  w.u32(crc);
  return w.take();
}

Result<ShardState> deserialize_shard_state(BytesView blob) {
  if (blob.size() < 4 + 4) {
    return Error{Err::kInvalidArgument, "snapshot too short"};
  }
  const BytesView body = blob.subspan(0, blob.size() - 4);
  BinaryReader crc_reader(blob.subspan(blob.size() - 4));
  if (crc32c(body) != crc_reader.u32().value()) {
    return Error{Err::kCryptoError, "snapshot crc mismatch"};
  }
  BinaryReader r(body);
  if (r.u32().value() != kSnapshotMagic) {
    return Error{Err::kCryptoError, "snapshot magic mismatch"};
  }
  const std::uint16_t version = r.u16().value();
  if (version != kSnapshotVersion) {
    return Error{Err::kUnsupported,
                 "snapshot version " + std::to_string(version)};
  }
  ShardState state;
  state.last_seq = r.u64().value();
  state.source_now_ns = static_cast<std::int64_t>(r.u64().value());
  state.next_tx_id = r.u64().value();
  state.tx_accepted_total = r.u64().value();

  auto read_sessions = [&r](std::vector<SessionEntry>& out) -> Status {
    auto count = r.u32();
    if (!count.ok()) return count.error();
    for (std::uint32_t i = 0; i < count.value(); ++i) {
      SessionEntry e;
      if (Status st = read_session(r, e.key, e.session); !st.ok()) return st;
      out.push_back(e);
    }
    return Status::ok_status();
  };
  if (Status st = read_sessions(state.enroll_sessions); !st.ok()) return st.error();
  if (Status st = read_sessions(state.tx_sessions); !st.ok()) return st.error();

  auto n_enrolled = r.u32();
  if (!n_enrolled.ok()) return n_enrolled.error();
  for (std::uint32_t i = 0; i < n_enrolled.value(); ++i) {
    EnrolledClient c;
    auto id = r.var_string();
    if (!id.ok()) return id.error();
    c.id = id.take();
    auto blob_bytes = r.var_bytes();
    if (!blob_bytes.ok()) return blob_bytes.error();
    c.key_blob = blob_bytes.take();
    if (c.key_blob.empty()) {
      return Error{Err::kInvalidArgument, "enrolled client with empty key"};
    }
    state.enrolled.push_back(std::move(c));
  }
  auto n_digests = r.u32();
  if (!n_digests.ok()) return n_digests.error();
  for (std::uint32_t i = 0; i < n_digests.value(); ++i) {
    ReplayDigest d{};
    if (Status st = read_array(r, d); !st.ok()) return st.error();
    state.replay_digests.push_back(d);
  }
  auto n_dedup = r.u32();
  if (!n_dedup.ok()) return n_dedup.error();
  for (std::uint32_t i = 0; i < n_dedup.value(); ++i) {
    DedupRow row;
    if (Status st = read_dedup(r, row); !st.ok()) return st.error();
    state.dedup.push_back(row);
  }
  if (Status st = r.expect_exhausted(); !st.ok()) {
    return Error{Err::kInvalidArgument, "snapshot trailing bytes"};
  }
  return state;
}

Bytes enroll_begin_body(std::int64_t now_ns, const SessionKey& key,
                        const Session& session) {
  BinaryWriter w;
  w.u64(static_cast<std::uint64_t>(now_ns));
  write_session(w, key, session);
  return w.take();
}

Bytes enroll_settle_body(std::int64_t now_ns, const SessionKey& key,
                         const Session& session, std::string_view client_id,
                         BytesView key_blob) {
  BinaryWriter w;
  w.u64(static_cast<std::uint64_t>(now_ns));
  write_session(w, key, session);
  w.var_string(client_id);
  w.var_bytes(key_blob);
  return w.take();
}

Bytes tx_begin_body(std::int64_t now_ns, const SessionKey& key,
                    const Session& session, std::uint64_t next_tx_id,
                    const DedupRow* dedup) {
  BinaryWriter w;
  w.u64(static_cast<std::uint64_t>(now_ns));
  write_session(w, key, session);
  w.u64(next_tx_id);
  w.u8(dedup != nullptr ? 1 : 0);
  if (dedup != nullptr) write_dedup(w, *dedup);
  return w.take();
}

Bytes tx_settle_body(std::int64_t now_ns, const SessionKey& key,
                     const Session& session, std::uint64_t next_tx_id,
                     std::uint64_t tx_accepted_total,
                     const ReplayDigest* digest) {
  BinaryWriter w;
  w.u64(static_cast<std::uint64_t>(now_ns));
  write_session(w, key, session);
  w.u64(next_tx_id);
  w.u64(tx_accepted_total);
  w.u8(digest != nullptr ? 1 : 0);
  if (digest != nullptr) w.raw(BytesView(digest->data(), digest->size()));
  return w.take();
}

Bytes replay_digest_body(std::int64_t now_ns, const ReplayDigest& digest) {
  BinaryWriter w;
  w.u64(static_cast<std::uint64_t>(now_ns));
  w.raw(BytesView(digest.data(), digest.size()));
  return w.take();
}

Bytes dedup_row_body(std::int64_t now_ns, const DedupRow& row) {
  BinaryWriter w;
  w.u64(static_cast<std::uint64_t>(now_ns));
  write_dedup(w, row);
  return w.take();
}

ShardStateBuilder::ShardStateBuilder(ShardState base) {
  source_now_ns_ = base.source_now_ns;
  next_tx_id_ = base.next_tx_id;
  tx_accepted_total_ = base.tx_accepted_total;
  last_seq_ = base.last_seq;
  auto seed_sessions = [this](SessionMap& map,
                              std::vector<SessionEntry>& entries) {
    for (SessionEntry& e : entries) {
      map.index.emplace(map_key(e.key), map.recs.size());
      // Snapshot entries keep their relative order; kJournalTokenBase
      // guarantees every journal upsert sorts after them on ties.
      map.recs.push_back(SessionRec{std::move(e), next_token_++});
    }
  };
  seed_sessions(enroll_, base.enroll_sessions);
  seed_sessions(tx_, base.tx_sessions);
  for (EnrolledClient& c : base.enrolled) {
    enrolled_index_.emplace(c.id, enrolled_.size());
    enrolled_.push_back(std::move(c));
  }
  for (const ReplayDigest& d : base.replay_digests) add_digest(d);
  for (const DedupRow& row : base.dedup) add_dedup(row);
}

void ShardStateBuilder::upsert(SessionMap& map, const SessionKey& key,
                               const Session& session, bool arm_token) {
  const std::string k = map_key(key);
  auto it = map.index.find(k);
  if (it == map.index.end()) {
    map.index.emplace(k, map.recs.size());
    map.recs.push_back(
        SessionRec{SessionEntry{key, session}, kJournalTokenBase + next_token_++});
    return;
  }
  SessionRec& rec = map.recs[it->second];
  rec.entry.session = session;
  // A begin re-arms the arrival token (the live table moves the slot to
  // the LRU back); a settle leaves it where its begin put it.
  if (arm_token) rec.token = kJournalTokenBase + next_token_++;
}

void ShardStateBuilder::add_digest(const ReplayDigest& digest) {
  const std::string k = map_key(BytesView(digest.data(), digest.size()));
  if (digest_index_.contains(k)) return;
  digest_index_.emplace(k, digests_.size());
  digests_.push_back(digest);
}

void ShardStateBuilder::add_dedup(const DedupRow& row) {
  // A re-inserted key moves to the back instead of updating in place:
  // a row that collided with it in between must not replay after it.
  const std::string k = map_key(row.client) + map_key(row.digest);
  const auto [it, fresh] = dedup_index_.try_emplace(k, dedup_.size());
  if (!fresh) {
    dedup_live_[it->second] = false;
    it->second = dedup_.size();
  }
  dedup_.push_back(row);
  dedup_live_.push_back(true);
}

Status ShardStateBuilder::apply(const JournalRecord& record) {
  if (record.seq <= last_seq_) return Status::ok_status();  // idempotence
  BinaryReader r(record.body);
  auto now = r.u64();
  if (!now.ok()) return now.error();
  const auto now_ns = static_cast<std::int64_t>(now.value());
  // Every arm fully parses before mutating, so a structurally invalid
  // record can never half-apply.
  auto exhausted = [&r, &record]() -> Status {
    if (Status st = r.expect_exhausted(); !st.ok()) {
      return Status(Err::kInvalidArgument,
                    std::string("trailing bytes in ") +
                        record_type_name(record.type) + " record");
    }
    return Status::ok_status();
  };

  switch (record.type) {
    case RecordType::kEnrollBegin: {
      SessionKey key{};
      Session session;
      if (Status st = read_session(r, key, session); !st.ok()) return st;
      if (Status st = exhausted(); !st.ok()) return st;
      upsert(enroll_, key, session, /*arm_token=*/true);
      break;
    }
    case RecordType::kEnrollSettle: {
      SessionKey key{};
      Session session;
      if (Status st = read_session(r, key, session); !st.ok()) return st;
      auto id = r.var_string();
      if (!id.ok()) return id.error();
      auto blob = r.var_bytes();
      if (!blob.ok()) return blob.error();
      if (Status st = exhausted(); !st.ok()) return st;
      upsert(enroll_, key, session, /*arm_token=*/false);
      if (!blob.value().empty()) {
        auto it = enrolled_index_.find(id.value());
        if (it != enrolled_index_.end()) {
          enrolled_[it->second].key_blob = blob.take();
        } else {
          enrolled_index_.emplace(id.value(), enrolled_.size());
          enrolled_.push_back(EnrolledClient{id.take(), blob.take()});
        }
      }
      break;
    }
    case RecordType::kTxBegin: {
      SessionKey key{};
      Session session;
      if (Status st = read_session(r, key, session); !st.ok()) return st;
      auto next_tx = r.u64();
      if (!next_tx.ok()) return next_tx.error();
      auto has_dedup = r.u8();
      if (!has_dedup.ok()) return has_dedup.error();
      DedupRow row;
      if (has_dedup.value() != 0) {
        if (Status st = read_dedup(r, row); !st.ok()) return st;
      }
      if (Status st = exhausted(); !st.ok()) return st;
      upsert(tx_, key, session, /*arm_token=*/true);
      next_tx_id_ = std::max(next_tx_id_, next_tx.value());
      if (has_dedup.value() != 0) add_dedup(row);
      break;
    }
    case RecordType::kTxSettle: {
      SessionKey key{};
      Session session;
      if (Status st = read_session(r, key, session); !st.ok()) return st;
      auto next_tx = r.u64();
      if (!next_tx.ok()) return next_tx.error();
      auto accepted = r.u64();
      if (!accepted.ok()) return accepted.error();
      auto has_digest = r.u8();
      if (!has_digest.ok()) return has_digest.error();
      ReplayDigest digest{};
      if (has_digest.value() != 0) {
        if (Status st = read_array(r, digest); !st.ok()) return st;
      }
      if (Status st = exhausted(); !st.ok()) return st;
      upsert(tx_, key, session, /*arm_token=*/false);
      next_tx_id_ = std::max(next_tx_id_, next_tx.value());
      tx_accepted_total_ = std::max(tx_accepted_total_, accepted.value());
      if (has_digest.value() != 0) add_digest(digest);
      break;
    }
    case RecordType::kReplayDigest: {
      ReplayDigest digest{};
      if (Status st = read_array(r, digest); !st.ok()) return st;
      if (Status st = exhausted(); !st.ok()) return st;
      add_digest(digest);
      break;
    }
    case RecordType::kDedupRow: {
      DedupRow row;
      if (Status st = read_dedup(r, row); !st.ok()) return st;
      if (Status st = exhausted(); !st.ok()) return st;
      add_dedup(row);
      break;
    }
  }
  source_now_ns_ = std::max(source_now_ns_, now_ns);
  last_seq_ = record.seq;
  ++applied_;
  return Status::ok_status();
}

ShardState ShardStateBuilder::take() {
  ShardState out;
  auto materialize = [](SessionMap& map) {
    std::sort(map.recs.begin(), map.recs.end(),
              [](const SessionRec& a, const SessionRec& b) {
                if (a.entry.session.deadline.ns != b.entry.session.deadline.ns) {
                  return a.entry.session.deadline.ns <
                         b.entry.session.deadline.ns;
                }
                return a.token < b.token;
              });
    std::vector<SessionEntry> entries;
    entries.reserve(map.recs.size());
    for (SessionRec& rec : map.recs) entries.push_back(std::move(rec.entry));
    return entries;
  };
  out.enroll_sessions = materialize(enroll_);
  out.tx_sessions = materialize(tx_);
  std::sort(enrolled_.begin(), enrolled_.end(),
            [](const EnrolledClient& a, const EnrolledClient& b) {
              return a.id < b.id;
            });
  out.enrolled = std::move(enrolled_);
  out.replay_digests = std::move(digests_);
  for (std::size_t i = 0; i < dedup_.size(); ++i) {
    if (dedup_live_[i]) out.dedup.push_back(dedup_[i]);
  }
  out.source_now_ns = source_now_ns_;
  out.next_tx_id = next_tx_id_;
  out.tx_accepted_total = tx_accepted_total_;
  out.last_seq = last_seq_;
  return out;
}

}  // namespace tp::store
