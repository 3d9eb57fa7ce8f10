// POSIX append-file backend for verifier_daemon's journal.
//
// Layout under the configured directory:
//   journal.wal   -- the append-only record stream
//   snapshot.bin  -- the compacted ShardState blob
//
// Durability discipline:
//   - append_journal: one write(2) of the whole buffer (a DurableLog
//     commit: every record of a drained batch) followed by one
//     fdatasync. A crash mid-write leaves a prefix -- exactly the torn
//     tail decode_journal tolerates. A failed write or fdatasync throws
//     std::runtime_error; the caller must not retry the sync (the page
//     cache cannot be trusted after a failed fdatasync) but rebuild
//     from the journal.
//   - write_snapshot: write to snapshot.bin.tmp, fsync, rename over
//     snapshot.bin, fsync the directory -- the standard atomic-replace
//     dance, so recovery sees the old or the new snapshot, never a mix.
#pragma once

#include <cstdint>
#include <string>

#include "store/storage_backend.h"

namespace tp::store {

class FileBackend final : public StorageBackend {
 public:
  /// Opens (creating if needed) the journal directory. Throws
  /// std::runtime_error on any I/O failure.
  explicit FileBackend(std::string directory);
  ~FileBackend() override;

  FileBackend(const FileBackend&) = delete;
  FileBackend& operator=(const FileBackend&) = delete;

  void append_journal(BytesView record) override;
  Bytes read_journal() const override;
  void reset_journal() override;
  void write_snapshot(BytesView blob) override;
  Bytes read_snapshot() const override;
  std::uint64_t journal_bytes() const override;
  std::uint64_t appended_total() const override;

  const std::string& directory() const { return dir_; }

 private:
  std::string journal_path() const;
  std::string snapshot_path() const;

  std::string dir_;
  int journal_fd_ = -1;
  std::uint64_t journal_bytes_ = 0;
  /// Cumulative bytes appended, seeded with the on-disk size at open so
  /// the axis stays monotone across restarts of the same directory.
  std::uint64_t appended_total_ = 0;
};

}  // namespace tp::store
