// Durability suite (`ctest -L crash`): the src/store layer in isolation.
//
// Covers the three store invariants everything above leans on:
//
//   - Framing: CRC32-C framed records round-trip; decode_journal draws
//     the torn-tail (benign) vs corruption (typed error) line exactly --
//     truncating at EVERY offset recovers the whole-record prefix with
//     no corruption report, while bit-flipping EVERY byte of a valid
//     journal stops decode at the damaged record, keeps the intact
//     prefix, and never crashes (the suite runs under ASan/UBSan in CI).
//   - Snapshot: serialize/deserialize round-trips a fully populated
//     ShardState; any single-byte damage is a typed hard error (there
//     is no safe prefix of a snapshot), and so is a short blob whose
//     CRC holds.
//   - Fold: every record body is a ShardState delta in the snapshot's
//     body codec; the builder merges a duplicated record once, moves a
//     re-inserted dedup key to the back, and orders sessions exactly as
//     the live table does.
//   - Log: DurableLog positions the seq cursor past what it recovered,
//     a torn append or multi-record commit does not consume a seq, and
//     the compaction crash window ("snapshot written, journal not yet
//     truncated") replays zero already-covered records.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "store/durable_log.h"
#include "store/file_backend.h"
#include "store/journal.h"
#include "store/shard_state.h"
#include "store/storage_backend.h"
#include "util/bytes.h"
#include "util/serial.h"

namespace tp {
namespace {

using store::CrashInjected;
using store::DedupRow;
using store::DurableLog;
using store::DurableLogConfig;
using store::EnrolledClient;
using store::FileBackend;
using store::JournalDecode;
using store::JournalFault;
using store::JournalRecord;
using store::MemoryBackend;
using store::RecordType;
using store::ReplayDigest;
using store::SessionKey;
using store::ShardState;
using store::ShardStateBuilder;

SessionKey make_key(std::uint8_t tag) {
  SessionKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(tag + i);
  }
  return key;
}

ReplayDigest make_digest(std::uint8_t tag) {
  ReplayDigest digest{};
  for (std::size_t i = 0; i < digest.size(); ++i) {
    digest[i] = static_cast<std::uint8_t>(tag * 7 + i);
  }
  return digest;
}

proto::SessionTable::Session make_session(proto::SessionState state,
                                          std::int64_t deadline_ns,
                                          std::uint8_t tag) {
  proto::SessionTable::Session session;
  session.state = state;
  session.deadline = SimTime{deadline_ns};
  session.client = make_key(tag);
  session.set_nonce(bytes_of("nonce-" + std::to_string(tag)));
  for (std::size_t i = 0; i < session.tx_digest.size(); ++i) {
    session.tx_digest[i] = static_cast<std::uint8_t>(tag ^ i);
  }
  session.request_digest = make_key(static_cast<std::uint8_t>(tag + 1));
  session.set_response(bytes_of("cached-response-" + std::to_string(tag)));
  return session;
}

ShardState sample_state() {
  ShardState state;
  state.enroll_sessions.push_back(
      {make_key(1), make_session(proto::SessionState::kChallengeSent, 100, 1)});
  state.enroll_sessions.push_back(
      {make_key(2), make_session(proto::SessionState::kDone, 200, 2)});
  state.tx_sessions.push_back(
      {make_key(3), make_session(proto::SessionState::kChallengeSent, 150, 3)});
  state.tx_sessions.push_back(
      {make_key(4), make_session(proto::SessionState::kFailed, 250, 4)});
  state.enrolled.push_back({"client-a", bytes_of("serialized-key-a")});
  state.enrolled.push_back({"client-b", bytes_of("serialized-key-b")});
  state.replay_digests.push_back(make_digest(1));
  state.replay_digests.push_back(make_digest(2));
  state.dedup.push_back({make_key(5), make_key(6), 41});
  state.source_now_ns = 777;
  state.next_tx_id = 42;
  state.tx_accepted_total = 17;
  state.last_seq = 9;
  return state;
}

/// Delta helpers: one frame's worth of state, stamped at `now_ns`.
ShardState digest_delta(std::int64_t now_ns, const ReplayDigest& digest) {
  ShardState delta;
  delta.source_now_ns = now_ns;
  delta.replay_digests = {digest};
  return delta;
}

ShardState dedup_delta(std::int64_t now_ns, const DedupRow& row) {
  ShardState delta;
  delta.source_now_ns = now_ns;
  delta.dedup = {row};
  return delta;
}

JournalRecord delta_record(std::uint64_t seq, const ShardState& delta) {
  return {seq, RecordType::kShardDelta, store::encode_shard_delta(delta)};
}

/// stage + commit of one delta: the SP's write path for a single frame.
void append_delta(DurableLog& log, const ShardState& delta) {
  log.stage(delta);
  log.commit();
}

/// A small journal whose deltas fill every list of the body, shaped
/// like the SP's own records, as `(encoded, records)`.
struct SampleJournal {
  Bytes bytes;
  std::vector<JournalRecord> records;
};

SampleJournal sample_journal() {
  SampleJournal j;
  const auto add = [&j](const ShardState& delta) {
    j.records.push_back(delta_record(j.records.size() + 1, delta));
    const JournalRecord& r = j.records.back();
    append(j.bytes, store::encode_record(r.seq, r.type, r.body));
  };
  ShardState enroll_begin;  // EnrollBegin: the enroll session
  enroll_begin.source_now_ns = 10;
  enroll_begin.enroll_sessions = {
      {make_key(1), make_session(proto::SessionState::kChallengeSent, 100, 1)}};
  add(enroll_begin);
  ShardState enroll_settle;  // EnrollComplete: the session plus the key
  enroll_settle.source_now_ns = 20;
  enroll_settle.enroll_sessions = {
      {make_key(1), make_session(proto::SessionState::kDone, 100, 1)}};
  enroll_settle.enrolled = {{"client-a", bytes_of("serialized-key-a")}};
  add(enroll_settle);
  ShardState tx_begin;  // TxSubmit: the tx session and its dedup row
  tx_begin.source_now_ns = 30;
  tx_begin.next_tx_id = 43;
  tx_begin.tx_sessions = {
      {make_key(3), make_session(proto::SessionState::kChallengeSent, 150, 3)}};
  tx_begin.dedup = {{make_key(5), make_key(6), 43}};
  add(tx_begin);
  ShardState tx_settle;  // TxConfirm: the session plus the replay digest
  tx_settle.source_now_ns = 40;
  tx_settle.next_tx_id = 43;
  tx_settle.tx_accepted_total = 1;
  tx_settle.tx_sessions = {
      {make_key(3), make_session(proto::SessionState::kDone, 150, 3)}};
  tx_settle.replay_digests = {make_digest(9)};
  add(tx_settle);
  add(digest_delta(50, make_digest(10)));
  add(dedup_delta(60, DedupRow{make_key(7), make_key(8), 44}));
  return j;
}

void expect_same_record(const JournalRecord& got, const JournalRecord& want) {
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.body, want.body);
}

/// Canonical-bytes equality: the snapshot codec is deterministic, so two
/// states are equal iff their serializations are.
void expect_same_state(const ShardState& got, const ShardState& want) {
  EXPECT_EQ(store::serialize_shard_state(got),
            store::serialize_shard_state(want));
}

// ------------------------------------------------------------------ crc

TEST(Crc32c, KnownAnswer) {
  // The Castagnoli check value from RFC 3720 / the iSCSI test vector.
  const Bytes data = bytes_of("123456789");
  EXPECT_EQ(store::crc32c(data), 0xE3069283u);
  EXPECT_EQ(store::crc32c(BytesView{}), 0u);
}

// -------------------------------------------------------------- framing

TEST(Journal, EncodeDecodeRoundTripsEveryRecordType) {
  const SampleJournal j = sample_journal();
  const JournalDecode decoded = store::decode_journal(j.bytes);
  EXPECT_TRUE(decoded.clean());
  EXPECT_EQ(decoded.valid_bytes, j.bytes.size());
  ASSERT_EQ(decoded.records.size(), j.records.size());
  for (std::size_t i = 0; i < j.records.size(); ++i) {
    expect_same_record(decoded.records[i], j.records[i]);
  }
}

TEST(Journal, TruncatingAtEveryOffsetRecoversTheWholeRecordPrefix) {
  const SampleJournal j = sample_journal();
  // Whole-record boundaries, ascending (0 == empty journal).
  std::vector<std::size_t> boundaries{0};
  for (const JournalRecord& r : j.records) {
    boundaries.push_back(boundaries.back() + 8 + 9 + r.body.size());
  }
  ASSERT_EQ(boundaries.back(), j.bytes.size());

  for (std::size_t cut = 0; cut <= j.bytes.size(); ++cut) {
    const Bytes prefix(j.bytes.begin(),
                       j.bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    const JournalDecode decoded = store::decode_journal(prefix);

    std::size_t whole = 0;
    while (whole < j.records.size() && boundaries[whole + 1] <= cut) ++whole;
    ASSERT_EQ(decoded.records.size(), whole) << "cut at " << cut;
    for (std::size_t i = 0; i < whole; ++i) {
      expect_same_record(decoded.records[i], j.records[i]);
    }
    // Truncation is the benign kind of damage: a torn tail, never a
    // corruption report.
    EXPECT_FALSE(decoded.corruption.has_value()) << "cut at " << cut;
    EXPECT_EQ(decoded.valid_bytes, boundaries[whole]) << "cut at " << cut;
    EXPECT_EQ(decoded.truncated_tail, cut != boundaries[whole])
        << "cut at " << cut;
  }
}

TEST(Journal, BitFlippingEveryByteKeepsTheIntactPrefixAndNeverCrashes) {
  const SampleJournal j = sample_journal();
  std::vector<std::size_t> boundaries{0};
  for (const JournalRecord& r : j.records) {
    boundaries.push_back(boundaries.back() + 8 + 9 + r.body.size());
  }

  for (std::size_t pos = 0; pos < j.bytes.size(); ++pos) {
    Bytes flipped = j.bytes;
    flipped[pos] ^= 0x5a;
    const JournalDecode decoded = store::decode_journal(flipped);

    // The record containing the flipped byte.
    std::size_t damaged = 0;
    while (boundaries[damaged + 1] <= pos) ++damaged;

    // Everything before the damaged record survives verbatim; the
    // damaged record and everything after it is gone (decode stops at
    // the first record it cannot trust).
    ASSERT_GE(decoded.records.size(), damaged) << "flip at " << pos;
    ASSERT_LT(decoded.records.size(), j.records.size()) << "flip at " << pos;
    for (std::size_t i = 0; i < damaged; ++i) {
      expect_same_record(decoded.records[i], j.records[i]);
    }
    // Damage is always reported: either as a typed corruption naming
    // the damaged record, or (a flip that grew the length field) as a
    // torn tail.
    EXPECT_FALSE(decoded.clean()) << "flip at " << pos;
    if (decoded.corruption.has_value()) {
      EXPECT_EQ(decoded.corruption->record_index, damaged)
          << "flip at " << pos;
      EXPECT_EQ(decoded.corruption->byte_offset, boundaries[damaged])
          << "flip at " << pos;
    }
  }
}

TEST(Journal, CorruptionErrorNamesRecordOffsetAndFault) {
  const SampleJournal j = sample_journal();
  std::vector<std::size_t> boundaries{0};
  for (const JournalRecord& r : j.records) {
    boundaries.push_back(boundaries.back() + 8 + 9 + r.body.size());
  }

  // Flip one payload byte of record 2: CRC mismatch, typed and located.
  Bytes bad_crc = j.bytes;
  bad_crc[boundaries[2] + 8 + 9] ^= 0xff;
  const JournalDecode crc = store::decode_journal(bad_crc);
  ASSERT_TRUE(crc.corruption.has_value());
  EXPECT_EQ(crc.corruption->fault, JournalFault::kBadCrc);
  EXPECT_EQ(crc.corruption->record_index, 2u);
  EXPECT_EQ(crc.corruption->byte_offset, boundaries[2]);
  EXPECT_NE(crc.corruption->to_string().find("bad_crc"), std::string::npos);
  EXPECT_EQ(crc.records.size(), 2u);

  // A length field above the 1 MiB bound: kBadLength, not an allocation.
  Bytes bad_len = j.bytes;
  bad_len[boundaries[1]] = 0xff;  // big-endian u32 length, high byte
  const JournalDecode len = store::decode_journal(bad_len);
  ASSERT_TRUE(len.corruption.has_value());
  EXPECT_EQ(len.corruption->fault, JournalFault::kBadLength);
  EXPECT_EQ(len.corruption->record_index, 1u);
  EXPECT_EQ(len.records.size(), 1u);

  const auto frame_payload = [](const Bytes& payload) {
    BinaryWriter frame;
    frame.u32(static_cast<std::uint32_t>(payload.size()));
    frame.u32(store::crc32c(payload));
    frame.raw(payload);
    return frame.take();
  };

  // An unknown type tag with a recomputed (valid) CRC: kBadType. The
  // retired per-mutation tags 1-6 are unknown too, so a journal written
  // before the one delta kind stops decoding instead of being misread.
  for (const std::uint8_t tag : {1, 2, 3, 4, 5, 6, 0x7f}) {
    BinaryWriter unknown;
    unknown.u64(1);   // seq
    unknown.u8(tag);  // no such record type
    unknown.raw(bytes_of("body"));
    const JournalDecode type =
        store::decode_journal(frame_payload(unknown.take()));
    ASSERT_TRUE(type.corruption.has_value()) << "tag " << int{tag};
    EXPECT_EQ(type.corruption->fault, JournalFault::kBadType);
  }

  // A framed payload too short to hold seq+type: kShortPayload.
  const JournalDecode sp = store::decode_journal(frame_payload(bytes_of("tiny")));
  ASSERT_TRUE(sp.corruption.has_value());
  EXPECT_EQ(sp.corruption->fault, JournalFault::kShortPayload);
}

TEST(Journal, DuplicatedRecordsFoldInOnce) {
  const SampleJournal j = sample_journal();
  Bytes doubled = j.bytes;
  append(doubled, j.bytes);  // every record delivered twice, same seqs
  const JournalDecode decoded = store::decode_journal(doubled);
  EXPECT_TRUE(decoded.clean());
  ASSERT_EQ(decoded.records.size(), j.records.size() * 2);

  ShardStateBuilder once(ShardState{});
  for (const JournalRecord& r : store::decode_journal(j.bytes).records) {
    ASSERT_TRUE(once.apply(r).ok());
  }
  ShardStateBuilder twice(ShardState{});
  for (const JournalRecord& r : decoded.records) {
    ASSERT_TRUE(twice.apply(r).ok());
  }
  // The second pass is seq-skipped wholesale: same applied count, same
  // materialized state.
  EXPECT_EQ(twice.applied(), once.applied());
  EXPECT_EQ(twice.applied(), j.records.size());
  expect_same_state(twice.take(), once.take());
}

TEST(Journal, ReinsertedDedupKeyFoldsToItsLastPosition) {
  // Rows A, B, A' where A' re-inserts A's (client, digest) key. Recovery
  // replays dedup rows in order into the SP's direct-mapped table, so if
  // A and B share a slot the live table holds A' -- the fold must put A'
  // after B, not update A in place ahead of it.
  const DedupRow a{make_key(1), make_key(2), 10};
  const DedupRow b{make_key(3), make_key(4), 11};
  const DedupRow a2{make_key(1), make_key(2), 12};
  ShardStateBuilder builder(ShardState{});
  std::uint64_t seq = 0;
  for (const DedupRow& row : {a, b, a2}) {
    ++seq;
    ASSERT_TRUE(builder
                    .apply(delta_record(
                        seq, dedup_delta(static_cast<std::int64_t>(seq), row)))
                    .ok());
  }
  EXPECT_EQ(builder.take().dedup, (std::vector<DedupRow>{b, a2}));

  // The same holds when A arrives in the snapshot and B, A' in the
  // journal behind it.
  ShardState base;
  base.dedup = {a};
  ShardStateBuilder from_snapshot(std::move(base));
  const DedupRow tail[] = {b, a2};
  for (std::uint64_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        from_snapshot.apply(delta_record(i + 1, dedup_delta(1, tail[i]))).ok());
  }
  EXPECT_EQ(from_snapshot.take().dedup, (std::vector<DedupRow>{b, a2}));
}

TEST(Journal, FoldedSessionOrderMatchesTheLiveTable) {
  // Begin A, begin B, settle A, begin A again, begin C, all at one
  // instant, so every deadline ties and only arrival order tells the
  // sessions apart. The live table moves a slot to its LRU back on each
  // begin and leaves it in place on a settle; restore() replays the
  // fold's order as the recovered LRU order, so the fold must agree
  // with the live table after every step, in both session maps.
  const SimTime now{1'000};
  const SessionKey a = make_key(1);
  const SessionKey b = make_key(2);
  const SessionKey c = make_key(3);
  struct Step {
    SessionKey key;
    bool begin;
  };
  const Step steps[] = {{a, true}, {b, true}, {a, false}, {a, true}, {c, true}};
  const auto keys_of = [](const std::vector<store::SessionEntry>& entries) {
    std::vector<SessionKey> keys;
    for (const store::SessionEntry& e : entries) keys.push_back(e.key);
    return keys;
  };
  for (const bool tx : {false, true}) {
    proto::SessionTable live(
        proto::SessionTableConfig{8, SimDuration::seconds(120)});
    std::vector<JournalRecord> records;
    for (const Step& step : steps) {
      proto::SessionTable::Session* session = nullptr;
      if (step.begin) {
        session = &live.begin(step.key, now);
      } else {
        session = live.find(step.key, now);
        ASSERT_NE(session, nullptr);
        session->state = proto::SessionState::kDone;
      }
      ShardState delta;
      delta.source_now_ns = now.ns;
      (tx ? delta.tx_sessions : delta.enroll_sessions)
          .push_back({step.key, *session});
      records.push_back(delta_record(records.size() + 1, delta));

      ShardStateBuilder builder{ShardState{}};
      for (const JournalRecord& r : records) ASSERT_TRUE(builder.apply(r).ok());
      const ShardState folded = builder.take();
      EXPECT_EQ(keys_of(tx ? folded.tx_sessions : folded.enroll_sessions),
                keys_of(live.snapshot()))
          << (tx ? "tx" : "enroll") << " map after step " << records.size();
    }
    EXPECT_EQ(keys_of(live.snapshot()), (std::vector<SessionKey>{b, a, c}));
  }
}

TEST(Journal, BuilderRejectsStructurallyInvalidBodies) {
  // A framed, CRC-valid record whose *body* does not parse is the same
  // class of damage as a CRC failure; apply() reports it as a typed
  // error instead of half-applying.
  JournalRecord record;
  record.seq = 1;
  record.type = RecordType::kShardDelta;
  record.body = bytes_of("definitely not a shard delta");
  ShardStateBuilder builder(ShardState{});
  const Status status = builder.apply(record);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Err::kInvalidArgument);
  EXPECT_EQ(builder.applied(), 0u);

  // Every proper prefix of a real delta body (the journal frame's CRC
  // would be valid over it) fails the same typed way, never by throwing.
  const Bytes body = sample_journal().records[3].body;
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    ShardStateBuilder truncated(ShardState{});
    const Status st = truncated.apply(JournalRecord{
        1, RecordType::kShardDelta, Bytes(body.begin(), body.begin() + cut)});
    ASSERT_FALSE(st.ok()) << "cut at " << cut;
    EXPECT_EQ(st.code(), Err::kInvalidArgument) << "cut at " << cut;
    EXPECT_EQ(truncated.applied(), 0u);
  }
}

// ------------------------------------------------------------- snapshot

TEST(ShardStateCodec, RoundTripsAFullyPopulatedState) {
  const ShardState state = sample_state();
  const Bytes blob = store::serialize_shard_state(state);
  auto parsed = store::deserialize_shard_state(blob);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const ShardState& got = parsed.value();
  EXPECT_EQ(got.enroll_sessions.size(), state.enroll_sessions.size());
  EXPECT_EQ(got.tx_sessions.size(), state.tx_sessions.size());
  ASSERT_EQ(got.enrolled.size(), 2u);
  EXPECT_EQ(got.enrolled[0].id, "client-a");
  EXPECT_EQ(got.enrolled[1].key_blob, bytes_of("serialized-key-b"));
  EXPECT_EQ(got.replay_digests, state.replay_digests);
  ASSERT_EQ(got.dedup.size(), 1u);
  EXPECT_EQ(got.dedup[0].tx_id, 41u);
  EXPECT_EQ(got.source_now_ns, 777);
  EXPECT_EQ(got.next_tx_id, 42u);
  EXPECT_EQ(got.tx_accepted_total, 17u);
  EXPECT_EQ(got.last_seq, 9u);
  expect_same_state(got, state);
}

TEST(ShardStateCodec, AnySingleByteDamageIsATypedHardError) {
  // Unlike the journal there is no safe prefix of a snapshot: the CRC
  // seal turns every single-byte flip into a typed refusal (CRC32
  // detects all single-bit and single-byte errors), and every
  // truncation into a structural error. Neither may crash.
  const Bytes blob = store::serialize_shard_state(sample_state());
  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    Bytes damaged = blob;
    damaged[pos] ^= 0x21;
    auto parsed = store::deserialize_shard_state(damaged);
    ASSERT_FALSE(parsed.ok()) << "flip at " << pos;
    EXPECT_TRUE(parsed.error().code == Err::kCryptoError ||
                parsed.error().code == Err::kInvalidArgument)
        << "flip at " << pos << ": " << parsed.error().to_string();
  }
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    const Bytes prefix(blob.begin(),
                       blob.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(store::deserialize_shard_state(prefix).ok())
        << "cut at " << cut;
  }
}

TEST(ShardStateCodec, ShortBlobsWithAValidCrcAreTypedErrors) {
  // A blob whose CRC seal holds but whose header or body stops early
  // must come back as kInvalidArgument, never as an exception out of an
  // unchecked read. The shortest such blob is magic + version + CRC (10
  // bytes); every longer cut of a real snapshot, resealed, must fail the
  // same way.
  const Bytes full = store::serialize_shard_state(sample_state());
  const BytesView body(full.data(), full.size() - 4);
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    BinaryWriter w;
    w.raw(body.first(cut));
    w.u32(store::crc32c(body.first(cut)));
    const Bytes blob = w.take();
    if (cut == 6) {
      ASSERT_EQ(blob.size(), 10u);
    }
    auto parsed = store::deserialize_shard_state(blob);
    ASSERT_FALSE(parsed.ok()) << "cut at " << cut;
    EXPECT_EQ(parsed.error().code, Err::kInvalidArgument)
        << "cut at " << cut << ": " << parsed.error().to_string();
  }
}

TEST(ShardStateCodec, SessionsCarryNonceAndResponseByLength) {
  // A session writes its nonce and cached response by their lengths, not
  // as their 32- and 128-byte arrays: a TxSettle-shaped delta with a
  // 20-byte nonce and a 50-byte cached TxResult costs 162 B of session.
  proto::SessionTable::Session session =
      make_session(proto::SessionState::kDone, 150, 3);
  session.set_nonce(Bytes(20, 0x6e));
  session.set_response(Bytes(50, 0x72));
  ShardState delta;
  delta.tx_sessions = {{make_key(3), session}};
  const Bytes body = store::encode_shard_delta(delta);
  constexpr std::size_t kCountersAndCounts = 3 * 8 + 5 * 4;
  constexpr std::size_t kSessionFixed = 16 + 1 + 8 + 16 + 1 + 32 + 16 + 2;
  EXPECT_EQ(body.size(), kCountersAndCounts + kSessionFixed + 20 + 50);

  ShardStateBuilder builder(ShardState{});
  ASSERT_TRUE(builder.apply(JournalRecord{1, RecordType::kShardDelta, body}).ok());
  const ShardState got = builder.take();
  ASSERT_EQ(got.tx_sessions.size(), 1u);
  const proto::SessionTable::Session& back = got.tx_sessions[0].session;
  EXPECT_TRUE(std::equal(back.nonce_view().begin(), back.nonce_view().end(),
                         session.nonce_view().begin(),
                         session.nonce_view().end()));
  EXPECT_TRUE(std::equal(back.response_view().begin(),
                         back.response_view().end(),
                         session.response_view().begin(),
                         session.response_view().end()));
  EXPECT_EQ(back.request_digest, session.request_digest);
  EXPECT_EQ(back.tx_digest, session.tx_digest);
}

// -------------------------------------------------------------- backends

TEST(MemoryBackend, TornWriteCrashInjectionOnTheCumulativeAxis) {
  MemoryBackend backend;
  const Bytes first = bytes_of("first-record----");
  backend.append_journal(first);
  EXPECT_EQ(backend.appended_total(), first.size());

  // Arm the crash 4 bytes into the next record: the append keeps only
  // that prefix (a torn write) and reports the armed offset.
  backend.crash_at_bytes(backend.appended_total() + 4);
  const Bytes second = bytes_of("second-record---");
  try {
    backend.append_journal(second);
    FAIL() << "append across the crash point must throw";
  } catch (const CrashInjected& crash) {
    EXPECT_EQ(crash.offset(), first.size() + 4);
  }
  Bytes expect = first;
  expect.insert(expect.end(), second.begin(), second.begin() + 4);
  EXPECT_EQ(backend.read_journal(), expect);

  // A dead process stays dead: later appends throw too, without
  // persisting anything further.
  EXPECT_THROW(backend.append_journal(second), CrashInjected);
  EXPECT_EQ(backend.read_journal(), expect);

  // The axis is cumulative: reset_journal (compaction) empties the file
  // but not the offset counter, so an armed future point stays valid.
  backend.clear_crash_point();
  backend.reset_journal();
  EXPECT_EQ(backend.journal_bytes(), 0u);
  EXPECT_EQ(backend.appended_total(), first.size() + 4);
  backend.append_journal(first);
  EXPECT_EQ(backend.appended_total(), 2 * first.size() + 4);
}

TEST(FileBackend, PersistsJournalAndSnapshotAcrossReopen) {
  const std::string dir =
      (std::filesystem::current_path() / "store_test_filebackend").string();
  std::filesystem::remove_all(dir);
  const SampleJournal j = sample_journal();
  const Bytes snapshot = store::serialize_shard_state(sample_state());
  {
    FileBackend backend(dir);
    EXPECT_EQ(backend.journal_bytes(), 0u);
    backend.append_journal(j.bytes);
    backend.write_snapshot(snapshot);
    EXPECT_EQ(backend.read_journal(), j.bytes);
    EXPECT_EQ(backend.read_snapshot(), snapshot);
  }
  {
    // A "restarted process": same directory, fresh descriptor. The
    // cumulative-append axis is seeded with the on-disk size so crash
    // points and compaction triggers stay monotone.
    FileBackend backend(dir);
    EXPECT_EQ(backend.read_journal(), j.bytes);
    EXPECT_EQ(backend.read_snapshot(), snapshot);
    EXPECT_EQ(backend.appended_total(), j.bytes.size());

    backend.write_snapshot(bytes_of("replacement"));
    EXPECT_EQ(backend.read_snapshot(), bytes_of("replacement"));
    backend.reset_journal();
    EXPECT_EQ(backend.journal_bytes(), 0u);
    EXPECT_EQ(backend.read_journal(), Bytes{});
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------ durable log

TEST(DurableLog, RecoversWhatWasAppendedAndPositionsTheSeqCursor) {
  MemoryBackend backend;
  DurableLogConfig config;
  config.backend = &backend;
  DurableLog writer(config);
  auto empty = writer.recover();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
  EXPECT_EQ(writer.next_seq(), 1u);

  // append() frames an already-encoded body: the path that replays
  // decoded records into a fresh log.
  for (const ShardState& delta :
       {digest_delta(10, make_digest(1)), digest_delta(20, make_digest(2)),
        dedup_delta(30, DedupRow{make_key(1), make_key(2), 7})}) {
    writer.append(RecordType::kShardDelta,
                  store::encode_shard_delta(delta));
  }
  EXPECT_EQ(writer.next_seq(), 4u);

  DurableLog reader(config);
  auto recovered = reader.recover();
  ASSERT_TRUE(recovered.ok());
  const ShardState& state = recovered.value();
  ASSERT_EQ(state.replay_digests.size(), 2u);
  EXPECT_EQ(state.replay_digests[0], make_digest(1));  // FIFO order kept
  EXPECT_EQ(state.replay_digests[1], make_digest(2));
  ASSERT_EQ(state.dedup.size(), 1u);
  EXPECT_EQ(state.source_now_ns, 30);
  EXPECT_EQ(reader.recovery_stats().replayed_records, 3u);
  EXPECT_EQ(reader.recovery_stats().truncated_tail_bytes, 0u);
  EXPECT_FALSE(reader.recovery_stats().had_corruption);
  // The cursor continues the same seq space: a post-recovery append can
  // never collide with a recovered record.
  EXPECT_EQ(reader.next_seq(), 4u);
}

TEST(DurableLog, TornAppendDoesNotConsumeASeq) {
  MemoryBackend backend;
  DurableLogConfig config;
  config.backend = &backend;
  DurableLog log(config);
  ASSERT_TRUE(log.recover().ok());
  append_delta(log, digest_delta(10, make_digest(1)));

  backend.crash_at_bytes(backend.appended_total() + 5);
  EXPECT_THROW(append_delta(log, digest_delta(20, make_digest(2))),
               CrashInjected);
  EXPECT_EQ(log.next_seq(), 2u);  // the torn record's seq was not spent

  // The next incarnation sees record 1 plus a 5-byte torn tail.
  backend.clear_crash_point();
  DurableLog reader(config);
  auto recovered = reader.recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().replay_digests.size(), 1u);
  EXPECT_EQ(reader.recovery_stats().replayed_records, 1u);
  EXPECT_EQ(reader.recovery_stats().truncated_tail_bytes, 5u);
  EXPECT_EQ(reader.next_seq(), 2u);

  // A torn multi-record commit spends no seq either, even though the
  // backend kept its first record whole; the staged remainder is dropped.
  const Bytes kept = store::encode_record(
      2, RecordType::kShardDelta,
      store::encode_shard_delta(digest_delta(30, make_digest(3))));
  backend.crash_at_bytes(backend.appended_total() + kept.size() + 5);
  log.stage(digest_delta(30, make_digest(3)));
  log.stage(digest_delta(40, make_digest(4)));
  log.stage(digest_delta(50, make_digest(5)));
  EXPECT_THROW(log.commit(), CrashInjected);
  EXPECT_EQ(log.next_seq(), 2u);
  backend.clear_crash_point();
  const std::uint64_t after_tear = backend.appended_total();
  log.commit();  // nothing left staged
  EXPECT_EQ(backend.appended_total(), after_tear);

  // A record staged after the tear, by a frame whose reply can never
  // leave, must not ride along with the next incarnation's first commit.
  log.stage(digest_delta(55, make_digest(9)));

  // Recovery on the same log moves the cursor past the whole record the
  // tear kept, and later commits continue the seq space without a gap.
  ASSERT_TRUE(log.recover().ok());
  EXPECT_EQ(log.recovery_stats().replayed_records, 1u);
  EXPECT_EQ(log.next_seq(), 3u);
  log.stage(digest_delta(60, make_digest(6)));
  log.stage(digest_delta(70, make_digest(7)));
  log.commit();
  append_delta(log, digest_delta(80, make_digest(8)));
  EXPECT_EQ(log.next_seq(), 6u);
  const JournalDecode journal = store::decode_journal(backend.read_journal());
  ASSERT_TRUE(journal.clean());
  ASSERT_EQ(journal.records.size(), 3u);
  for (std::size_t i = 0; i < journal.records.size(); ++i) {
    EXPECT_EQ(journal.records[i].seq, 3u + i);
  }

  DurableLog last(config);
  auto everything = last.recover();
  ASSERT_TRUE(everything.ok());
  const std::vector<ReplayDigest> expected = {
      make_digest(1), make_digest(3), make_digest(6), make_digest(7),
      make_digest(8)};
  EXPECT_EQ(everything.value().replay_digests, expected);
  EXPECT_EQ(last.next_seq(), 6u);
}

TEST(DurableLog, AppendsAfterATornTailSurviveTheNextRecovery) {
  // Regression: recovery must amputate a torn tail (snapshot + journal
  // reset), because appends land at the journal's END. Leaving the
  // garbage in place would let incarnation 2 write records the decoder
  // can never reach past the damage -- incarnation 3 would then
  // silently lose everything incarnation 2 acked. The cluster
  // crash-chaos run caught exactly this as vanishing settle counts.
  MemoryBackend backend;
  DurableLogConfig config;
  config.backend = &backend;
  DurableLog log(config);
  ASSERT_TRUE(log.recover().ok());
  append_delta(log, digest_delta(10, make_digest(1)));
  backend.crash_at_bytes(backend.appended_total() + 5);
  EXPECT_THROW(append_delta(log, digest_delta(20, make_digest(2))),
               CrashInjected);
  backend.clear_crash_point();

  // Incarnation 2 recovers past the tear and appends two more records.
  DurableLog second(config);
  ASSERT_TRUE(second.recover().ok());
  EXPECT_EQ(backend.read_journal().size(), 0u)  // tail amputated
      << "recovery left a torn tail in the journal";
  append_delta(second, digest_delta(30, make_digest(3)));
  append_delta(second, digest_delta(40, make_digest(4)));

  // Incarnation 3 must see everything both predecessors acked.
  DurableLog third(config);
  auto recovered = third.recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().replay_digests.size(), 3u);
  EXPECT_FALSE(third.recovery_stats().had_corruption);
  EXPECT_EQ(third.recovery_stats().truncated_tail_bytes, 0u);
}

TEST(DurableLog, CompactionCrashWindowReplaysNothingTwice) {
  MemoryBackend backend;
  DurableLogConfig config;
  config.backend = &backend;
  DurableLog log(config);
  ASSERT_TRUE(log.recover().ok());
  append_delta(log, digest_delta(10, make_digest(1)));
  append_delta(log, digest_delta(20, make_digest(2)));
  const Bytes journal_before = backend.read_journal();

  DurableLog folder(config);
  auto state = folder.recover();
  ASSERT_TRUE(state.ok());
  folder.compact(state.value());
  EXPECT_EQ(backend.journal_bytes(), 0u);

  // Crash window: snapshot written but the journal truncation lost --
  // the next recovery sees BOTH, and the seq fence (snapshot.last_seq)
  // must keep it from folding the covered records in twice.
  backend.set_journal(journal_before);
  DurableLog reader(config);
  auto recovered = reader.recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(reader.recovery_stats().replayed_records, 0u);
  EXPECT_EQ(recovered.value().replay_digests.size(), 2u);
  expect_same_state(recovered.value(), state.value());
  EXPECT_EQ(reader.next_seq(), 3u);
}

TEST(DurableLog, ShouldCompactTracksTheConfiguredJournalBound) {
  MemoryBackend backend;
  DurableLogConfig config;
  config.backend = &backend;
  config.compact_journal_bytes = 64;
  DurableLog log(config);
  ASSERT_TRUE(log.recover().ok());
  EXPECT_FALSE(log.should_compact());
  while (!log.should_compact()) {
    append_delta(log, digest_delta(10, make_digest(3)));
  }
  EXPECT_GE(backend.journal_bytes(), 64u);
  // compact() commits what is staged before it stamps the snapshot.
  log.stage(digest_delta(20, make_digest(4)));
  const std::uint64_t seq = log.next_seq();
  log.compact(ShardState{});
  EXPECT_EQ(log.next_seq(), seq + 1);
  EXPECT_EQ(backend.journal_bytes(), 0u);
  EXPECT_FALSE(log.should_compact());

  // A corrupt snapshot is a hard typed error -- recovery must refuse,
  // not guess.
  Bytes snapshot = backend.read_snapshot();
  ASSERT_FALSE(snapshot.empty());
  snapshot[snapshot.size() / 2] ^= 0x01;
  backend.write_snapshot(snapshot);
  DurableLog reader(config);
  auto recovered = reader.recover();
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.error().message.find("snapshot"), std::string::npos);
}

TEST(DurableLog, ShouldCompactWaitsForTheJournalToOutgrowTheSnapshot) {
  // Ratio rule: once a snapshot exists, the configured byte floor alone
  // must not trigger compaction -- the journal has to reach the
  // snapshot's size too, or every compaction writes more than it
  // reclaims. Build a state whose snapshot dwarfs the 64-byte floor,
  // then watch the trigger move.
  MemoryBackend backend;
  DurableLogConfig config;
  config.backend = &backend;
  config.compact_journal_bytes = 64;
  DurableLog log(config);
  ASSERT_TRUE(log.recover().ok());
  ShardState bulky;
  for (std::uint8_t i = 0; i < 32; ++i) {
    bulky.replay_digests.push_back(make_digest(i));
  }
  log.compact(bulky);
  const std::uint64_t snapshot_bytes = backend.read_snapshot().size();
  ASSERT_GT(snapshot_bytes, 64u);

  while (backend.journal_bytes() < snapshot_bytes) {
    EXPECT_FALSE(log.should_compact());
    append_delta(log, digest_delta(10, make_digest(7)));
  }
  EXPECT_TRUE(log.should_compact());

  // A recovering log learns the snapshot size the same way.
  DurableLog reader(config);
  ASSERT_TRUE(reader.recover().ok());
  EXPECT_TRUE(reader.should_compact());
  reader.compact(ShardState{});
  EXPECT_FALSE(reader.should_compact());
}

}  // namespace
}  // namespace tp
