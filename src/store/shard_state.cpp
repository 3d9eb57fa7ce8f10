#include "store/shard_state.h"

#include <algorithm>
#include <utility>

#include "util/serial.h"

namespace tp::store {
namespace {

using Session = proto::SessionTable::Session;

constexpr std::uint32_t kSnapshotMagic = 0x54505353;  // "TPSS"
// The body codec's version: a snapshot of any other version is refused
// (kUnsupported), never reinterpreted.
constexpr std::uint16_t kSnapshotVersion = 2;

// Session keys and replay digests are both 16-byte arrays.
std::string map_key(const SessionKey& key) {
  return std::string(reinterpret_cast<const char*>(key.data()), key.size());
}

// The first n bytes of `out` (all of it by default).
template <std::size_t N>
Status read_array(BinaryReader& r, std::array<std::uint8_t, N>& out,
                  std::size_t n = N) {
  auto v = r.view(n);
  if (!v.ok()) return v.error();
  std::copy(v.value().begin(), v.value().end(), out.begin());
  return Status::ok_status();
}

Status read_u64(BinaryReader& r, std::uint64_t& out) {
  auto v = r.u64();
  if (!v.ok()) return v.error();
  out = v.value();
  return Status::ok_status();
}

void write_item(BinaryWriter& w, const SessionEntry& e) {
  const Session& s = e.session;
  w.raw(BytesView(e.key.data(), e.key.size()));
  w.u8(static_cast<std::uint8_t>(s.state));
  w.u64(static_cast<std::uint64_t>(s.deadline.ns));
  w.raw(BytesView(s.client.data(), s.client.size()));
  w.u8(s.nonce_len);
  w.raw(s.nonce_view());
  w.raw(BytesView(s.tx_digest.data(), s.tx_digest.size()));
  w.raw(BytesView(s.request_digest.data(), s.request_digest.size()));
  w.u16(s.response_len);
  w.raw(s.response_view());
}

Status read_item(BinaryReader& r, SessionEntry& e) {
  Session& s = e.session;
  if (Status st = read_array(r, e.key); !st.ok()) return st;
  auto state = r.u8();
  if (!state.ok()) return state.error();
  if (state.value() >= proto::kSessionStateCount) {
    return Status(Err::kInvalidArgument, "session state out of range");
  }
  s.state = static_cast<proto::SessionState>(state.value());
  std::uint64_t deadline = 0;
  if (Status st = read_u64(r, deadline); !st.ok()) return st;
  s.deadline.ns = static_cast<std::int64_t>(deadline);
  if (Status st = read_array(r, s.client); !st.ok()) return st;
  auto nonce_len = r.u8();
  if (!nonce_len.ok()) return nonce_len.error();
  if (nonce_len.value() > proto::SessionTable::kMaxNonceLen) {
    return Status(Err::kInvalidArgument, "nonce length out of range");
  }
  s.nonce_len = nonce_len.value();
  if (Status st = read_array(r, s.nonce, s.nonce_len); !st.ok()) return st;
  if (Status st = read_array(r, s.tx_digest); !st.ok()) return st;
  if (Status st = read_array(r, s.request_digest); !st.ok()) return st;
  auto response_len = r.u16();
  if (!response_len.ok()) return response_len.error();
  if (response_len.value() > proto::SessionTable::kMaxCachedResponseLen) {
    return Status(Err::kInvalidArgument, "cached response length out of range");
  }
  s.response_len = response_len.value();
  return read_array(r, s.response, s.response_len);
}

void write_item(BinaryWriter& w, const EnrolledClient& c) {
  w.var_string(c.id);
  w.var_bytes(c.key_blob);
}

Status read_item(BinaryReader& r, EnrolledClient& c) {
  auto id = r.var_string();
  if (!id.ok()) return id.error();
  c.id = id.take();
  auto blob = r.var_bytes();
  if (!blob.ok()) return blob.error();
  c.key_blob = blob.take();
  if (c.key_blob.empty()) {
    return Status(Err::kInvalidArgument, "enrolled client with empty key");
  }
  return Status::ok_status();
}

void write_item(BinaryWriter& w, const ReplayDigest& d) {
  w.raw(BytesView(d.data(), d.size()));
}

Status read_item(BinaryReader& r, ReplayDigest& d) { return read_array(r, d); }

void write_item(BinaryWriter& w, const DedupRow& row) {
  w.raw(BytesView(row.client.data(), row.client.size()));
  w.raw(BytesView(row.digest.data(), row.digest.size()));
  w.u64(row.tx_id);
}

Status read_item(BinaryReader& r, DedupRow& row) {
  if (Status st = read_array(r, row.client); !st.ok()) return st;
  if (Status st = read_array(r, row.digest); !st.ok()) return st;
  return read_u64(r, row.tx_id);
}

template <typename T>
void write_list(BinaryWriter& w, const std::vector<T>& items) {
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const T& item : items) write_item(w, item);
}

// Grows `out` one decoded element at a time, so a corrupt count fails at
// the first missing element instead of driving an allocation.
template <typename T>
Status read_list(BinaryReader& r, std::vector<T>& out) {
  auto count = r.u32();
  if (!count.ok()) return count.error();
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    T item{};
    if (Status st = read_item(r, item); !st.ok()) return st;
    out.push_back(std::move(item));
  }
  return Status::ok_status();
}

void write_state(BinaryWriter& w, const ShardState& state) {
  w.u64(static_cast<std::uint64_t>(state.source_now_ns));
  w.u64(state.next_tx_id);
  w.u64(state.tx_accepted_total);
  write_list(w, state.enroll_sessions);
  write_list(w, state.tx_sessions);
  write_list(w, state.enrolled);
  write_list(w, state.replay_digests);
  write_list(w, state.dedup);
}

// Reads a body that runs to the end of `r`. Every read is checked: a
// short or malformed body is kInvalidArgument, never an exception.
Result<ShardState> read_state(BinaryReader& r) {
  ShardState state;
  std::uint64_t now = 0;
  Status st = read_u64(r, now);
  if (st.ok()) st = read_u64(r, state.next_tx_id);
  if (st.ok()) st = read_u64(r, state.tx_accepted_total);
  if (st.ok()) st = read_list(r, state.enroll_sessions);
  if (st.ok()) st = read_list(r, state.tx_sessions);
  if (st.ok()) st = read_list(r, state.enrolled);
  if (st.ok()) st = read_list(r, state.replay_digests);
  if (st.ok()) st = read_list(r, state.dedup);
  if (st.ok()) st = r.expect_exhausted();
  if (!st.ok()) return st.error();
  state.source_now_ns = static_cast<std::int64_t>(now);
  return state;
}

}  // namespace

Bytes encode_shard_delta(const ShardState& delta) {
  BinaryWriter w;
  write_state(w, delta);
  return w.take();
}

Bytes serialize_shard_state(const ShardState& state) {
  BinaryWriter w;
  w.u32(kSnapshotMagic);
  w.u16(kSnapshotVersion);
  w.u64(state.last_seq);
  write_state(w, state);
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
  const BytesView sealed = blob.first(blob.size() - 4);
  // In bounds: the blob holds the CRC and at least the magic.
  if (crc32c(sealed) != BinaryReader(blob.last(4)).u32().value()) {
    return Error{Err::kCryptoError, "snapshot crc mismatch"};
  }
  BinaryReader r(sealed);
  if (r.u32().value() != kSnapshotMagic) {
    return Error{Err::kCryptoError, "snapshot magic mismatch"};
  }
  auto version = r.u16();
  if (!version.ok()) return version.error();
  if (version.value() != kSnapshotVersion) {
    return Error{Err::kUnsupported,
                 "snapshot version " + std::to_string(version.value())};
  }
  auto last_seq = r.u64();
  if (!last_seq.ok()) return last_seq.error();
  auto state = read_state(r);
  if (state.ok()) state.value().last_seq = last_seq.value();
  return state;
}

ShardStateBuilder::ShardStateBuilder(ShardState base)
    : last_seq_(base.last_seq) {
  merge(std::move(base));
}

void ShardStateBuilder::upsert(SessionMap& map, SessionEntry&& entry) {
  const auto [it, fresh] =
      map.index.try_emplace(map_key(entry.key), map.recs.size());
  if (fresh) {
    map.recs.push_back(SessionRec{std::move(entry), next_token_++});
    return;
  }
  SessionRec& rec = map.recs[it->second];
  // Only SessionTable::begin writes kChallengeSent, and begin moves the
  // slot to the LRU back, so that state re-arms the arrival token; a
  // settle (kDone / kFailed) leaves it where its begin put it.
  if (entry.session.state == proto::SessionState::kChallengeSent) {
    rec.token = next_token_++;
  }
  rec.entry.session = entry.session;
}

void ShardStateBuilder::merge(ShardState&& delta) {
  for (SessionEntry& e : delta.enroll_sessions) upsert(enroll_, std::move(e));
  for (SessionEntry& e : delta.tx_sessions) upsert(tx_, std::move(e));
  for (EnrolledClient& c : delta.enrolled) {
    const auto [it, fresh] = enrolled_index_.try_emplace(c.id, enrolled_.size());
    if (fresh) {
      enrolled_.push_back(std::move(c));
    } else {
      enrolled_[it->second].key_blob = std::move(c.key_blob);
    }
  }
  for (const ReplayDigest& d : delta.replay_digests) {
    if (digest_seen_.insert(map_key(d)).second) digests_.push_back(d);
  }
  for (const DedupRow& row : delta.dedup) {
    // A re-inserted key moves to the back instead of updating in place:
    // a row that collided with it in between must not replay after it.
    const auto [it, fresh] = dedup_index_.try_emplace(
        map_key(row.client) + map_key(row.digest), dedup_.size());
    if (!fresh) {
      dedup_live_[it->second] = false;
      it->second = dedup_.size();
    }
    dedup_.push_back(row);
    dedup_live_.push_back(true);
  }
  source_now_ns_ = std::max(source_now_ns_, delta.source_now_ns);
  next_tx_id_ = std::max(next_tx_id_, delta.next_tx_id);
  tx_accepted_total_ = std::max(tx_accepted_total_, delta.tx_accepted_total);
}

Status ShardStateBuilder::apply(const JournalRecord& record) {
  if (record.seq <= last_seq_) return Status::ok_status();  // idempotence
  BinaryReader r(record.body);
  auto delta = read_state(r);
  if (!delta.ok()) return delta.error();
  merge(delta.take());
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
