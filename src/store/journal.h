// CRC-framed write-ahead journal encoding for SP durable mutations.
//
// Record framing on the wire:
//
//   [u32 payload_len][u32 crc32c(payload)][payload]
//   payload = [u64 seq][u8 type][body...]
//
// The body is one frame's ShardState delta in the one serialized form
// of shard state (encode_shard_delta in store/shard_state.h); this
// layer frames it and never looks inside.
//
// `seq` is a per-shard monotone counter; the snapshot records the last
// seq it covers, so a replay after "snapshot written but journal not yet
// truncated" (the compaction crash window) skips the already-captured
// prefix instead of applying it twice.
//
// Decode draws a hard line between the two ways a journal goes bad:
//
//   - Torn tail (benign). The process died mid-append, so the file ends
//     with a prefix of a record: fewer than 8 header bytes, or a header
//     whose payload extends past end-of-file. Recovery keeps everything
//     before it and reports `truncated_tail`. By the write-ahead
//     contract the torn record's frame never released a reply, so
//     dropping it loses nothing a client observed.
//   - Corruption (typed error). A record that is *present* but wrong:
//     CRC mismatch, absurd length, unknown type tag, or a short payload.
//     Decode stops at the first such record, keeps the valid prefix, and
//     names the record index, byte offset and fault kind so operators
//     can tell bit-rot from a torn write.
//
// Either way decode_journal() never throws and never reads out of
// bounds: it is directly fuzzable (tests/fuzz_test.cpp feeds it random
// bytes and mutated valid journals).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace tp::store {

/// Journal record kinds. There is one: a record's body is a ShardState
/// delta in the snapshot's body codec (store/shard_state.h), holding
/// what one frame changed. One frame handled by the SP emits exactly one
/// record, so a torn write can never persist half a frame's correlated
/// mutations (e.g. a replay digest without its settled session — which
/// would turn a retransmit into a permanent kSigReplay reject). The tag
/// is new with the single kind: a record written under the retired
/// per-mutation tags (1–6) decodes as kBadType, never as a delta.
enum class RecordType : std::uint8_t {
  kShardDelta = 7,
};

/// Largest accepted payload. Real records are a few hundred bytes; the
/// bound keeps a corrupt length field from driving a giant allocation.
constexpr std::size_t kMaxRecordPayload = 1u << 20;  // 1 MiB

struct JournalRecord {
  std::uint64_t seq = 0;
  RecordType type = RecordType::kShardDelta;
  Bytes body;
};

/// Why decode stopped early at a record that is present but wrong.
enum class JournalFault : std::uint8_t {
  kBadLength,   // payload_len zero or above kMaxRecordPayload
  kBadCrc,      // CRC32-C mismatch over the payload
  kBadType,     // unknown record type tag
  kShortPayload // payload too short for the seq+type header
};

constexpr const char* journal_fault_name(JournalFault f) {
  switch (f) {
    case JournalFault::kBadLength: return "bad_length";
    case JournalFault::kBadCrc: return "bad_crc";
    case JournalFault::kBadType: return "bad_type";
    case JournalFault::kShortPayload: return "short_payload";
  }
  return "unknown";
}

/// Typed description of the first corrupt record: which record (index
/// in the journal), where it starts (byte offset), and what is wrong.
struct JournalCorruption {
  std::size_t record_index = 0;
  std::size_t byte_offset = 0;
  JournalFault fault = JournalFault::kBadCrc;

  std::string to_string() const;
};

struct JournalDecode {
  /// The longest valid record prefix.
  std::vector<JournalRecord> records;
  /// Bytes covered by `records` (decode consumed exactly this much).
  std::size_t valid_bytes = 0;
  /// The journal ends in a partial record (benign torn write).
  bool truncated_tail = false;
  /// Set when decode stopped at a corrupt (not merely torn) record.
  std::optional<JournalCorruption> corruption;

  bool clean() const { return !truncated_tail && !corruption.has_value(); }
};

/// CRC32-C (Castagnoli), software table implementation. Exposed for
/// tests and for the snapshot codec.
std::uint32_t crc32c(BytesView data);

/// Frames one record: header + CRC + payload as described above.
Bytes encode_record(std::uint64_t seq, RecordType type, BytesView body);

/// Decodes as many whole valid records as the buffer holds. Total: never
/// throws, never reads out of bounds; see the file comment for the
/// torn-tail vs corruption split.
JournalDecode decode_journal(BytesView data);

}  // namespace tp::store
