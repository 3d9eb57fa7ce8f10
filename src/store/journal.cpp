#include "store/journal.h"

#include <array>

#include "util/serial.h"

namespace tp::store {
namespace {

// CRC32-C (Castagnoli, reflected polynomial 0x82f63b78), table-driven.
// The kernel/SSE4.2 polynomial rather than zlib's 0x04c11db7: stronger
// Hamming distance at these record sizes and hardware-accelerated
// everywhere we would ever want to swap the implementation.
std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::size_t kFrameHeader = 8;  // u32 len + u32 crc
constexpr std::size_t kPayloadHeader = 9;  // u64 seq + u8 type

}  // namespace

std::uint32_t crc32c(BytesView data) {
  static const std::array<std::uint32_t, 256> kTable = make_crc32c_table();
  std::uint32_t crc = 0xffffffffu;
  for (const std::uint8_t byte : data) {
    crc = (crc >> 8) ^ kTable[(crc ^ byte) & 0xffu];
  }
  return crc ^ 0xffffffffu;
}

std::string JournalCorruption::to_string() const {
  return "journal record #" + std::to_string(record_index) + " at offset " +
         std::to_string(byte_offset) + ": " + journal_fault_name(fault);
}

Bytes encode_record(std::uint64_t seq, RecordType type, BytesView body) {
  BinaryWriter payload;
  payload.reserve(kPayloadHeader + body.size());
  payload.u64(seq);
  payload.u8(static_cast<std::uint8_t>(type));
  payload.raw(body);

  BinaryWriter frame;
  frame.reserve(kFrameHeader + payload.data().size());
  frame.u32(static_cast<std::uint32_t>(payload.data().size()));
  frame.u32(crc32c(payload.data()));
  frame.raw(payload.data());
  return frame.take();
}

JournalDecode decode_journal(BytesView data) {
  JournalDecode out;
  std::size_t pos = 0;
  while (pos < data.size()) {
    if (data.size() - pos < kFrameHeader) {
      // Fewer bytes than a frame header: the tail of a torn append.
      out.truncated_tail = true;
      break;
    }
    BinaryReader header(data.subspan(pos, kFrameHeader));
    const std::uint32_t len = header.u32().value();
    const std::uint32_t crc = header.u32().value();
    if (len < kPayloadHeader || len > kMaxRecordPayload) {
      out.corruption = JournalCorruption{out.records.size(), pos,
                                         len < kPayloadHeader
                                             ? JournalFault::kShortPayload
                                             : JournalFault::kBadLength};
      break;
    }
    if (data.size() - pos - kFrameHeader < len) {
      // The header is intact but the payload runs past end-of-file: the
      // record itself was torn mid-append.
      out.truncated_tail = true;
      break;
    }
    const BytesView payload = data.subspan(pos + kFrameHeader, len);
    if (crc32c(payload) != crc) {
      out.corruption = JournalCorruption{out.records.size(), pos,
                                         JournalFault::kBadCrc};
      break;
    }
    BinaryReader reader(payload);
    JournalRecord record;
    record.seq = reader.u64().value();
    const std::uint8_t tag = reader.u8().value();
    if (tag != static_cast<std::uint8_t>(RecordType::kShardDelta)) {
      out.corruption = JournalCorruption{out.records.size(), pos,
                                         JournalFault::kBadType};
      break;
    }
    record.type = static_cast<RecordType>(tag);
    record.body = reader.raw(reader.remaining()).take();
    out.records.push_back(std::move(record));
    pos += kFrameHeader + len;
    out.valid_bytes = pos;
  }
  return out;
}

}  // namespace tp::store
