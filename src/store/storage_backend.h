// Durability seam for the verifier's write-ahead journal.
//
// A StorageBackend owns exactly two byte streams per shard: an
// append-only journal and a single snapshot blob. The contract is the
// minimum the recovery path needs and nothing more:
//
//   - append_journal() is durable-before-return: once it returns, the
//     bytes survive a process death. DurableLog::commit() hands it one
//     or more whole framed records at once -- every record a
//     handle_frame / handle_frame_batch call staged -- so FileBackend
//     pays one write + one fdatasync per drained batch. A backend that
//     throws from append_journal() guarantees that AT MOST a prefix of
//     the buffer was persisted (a torn write, possibly ending inside any
//     of its records) -- never interior bytes.
//   - write_snapshot() atomically replaces the previous snapshot; a
//     crash leaves either the old blob or the new one, never a mix.
//   - reset_journal() truncates the journal to empty (after a snapshot
//     has captured its effects).
//
// MemoryBackend is the deterministic test double. Its crash injector
// speaks *cumulative* append offsets -- bytes ever appended, monotone
// across reset_journal() -- so a test can arm "die N bytes from now"
// and the point stays valid even if a compaction truncates the file in
// between. The append that crosses the armed offset keeps only the
// prefix up to it (a torn write, which inside a multi-record batch can
// keep some records whole) and throws CrashInjected; every later
// append throws too, because a dead process does not come back until
// someone clears the crash point and re-runs recovery.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "util/bytes.h"

namespace tp::store {

/// Thrown by fault-injecting backends at an armed crash point. The
/// verifier service treats it as the process dying mid-batch: the
/// in-memory shard state is poison from that moment on and only a
/// restart-from-journal brings the shard back.
class CrashInjected : public std::runtime_error {
 public:
  explicit CrashInjected(std::uint64_t offset)
      : std::runtime_error("injected crash at journal offset " +
                           std::to_string(offset)),
        offset_(offset) {}

  /// Cumulative journal offset (bytes ever appended) where the backend
  /// stopped persisting.
  std::uint64_t offset() const { return offset_; }

 private:
  std::uint64_t offset_ = 0;
};

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Appends `record` -- one or more concatenated framed records -- to
  /// the journal, durable before return. May throw CrashInjected
  /// (fault-injecting backends) or std::runtime_error (real I/O
  /// failure); either way at most a prefix was persisted.
  virtual void append_journal(BytesView record) = 0;

  /// The full journal contents (possibly ending in a torn record).
  virtual Bytes read_journal() const = 0;

  /// Truncates the journal to empty.
  virtual void reset_journal() = 0;

  /// Atomically replaces the snapshot blob.
  virtual void write_snapshot(BytesView blob) = 0;

  /// The current snapshot blob; empty when none was ever written.
  virtual Bytes read_snapshot() const = 0;

  /// Current journal size in bytes (compaction trigger input).
  virtual std::uint64_t journal_bytes() const = 0;

  /// Cumulative bytes ever appended to the journal, monotone across
  /// reset_journal(). Crash points are expressed on this axis.
  virtual std::uint64_t appended_total() const = 0;

  /// Crash-injection seam. The base implementation is a no-op so
  /// callers (the cluster's kill_shard) need not know the concrete
  /// backend type; only backends that return true from
  /// supports_crash_injection() honour the calls.
  virtual bool supports_crash_injection() const { return false; }

  /// Arms a crash at cumulative append offset `offset`: the append that
  /// would cross it keeps only the prefix up to `offset` and throws
  /// CrashInjected, as do all later appends until clear_crash_point().
  virtual void crash_at_bytes(std::uint64_t offset) { (void)offset; }

  virtual void clear_crash_point() {}
};

/// Deterministic in-memory backend for tests and benches. Thread-safe:
/// the svc worker appends while the test thread arms crash points and
/// reads offsets.
class MemoryBackend final : public StorageBackend {
 public:
  void append_journal(BytesView record) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (crash_at_.has_value() &&
        appended_total_ + record.size() > *crash_at_) {
      // Torn write: persist only the bytes up to the armed offset.
      const std::uint64_t keep =
          *crash_at_ > appended_total_ ? *crash_at_ - appended_total_ : 0;
      journal_.insert(journal_.end(), record.begin(),
                      record.begin() + static_cast<std::ptrdiff_t>(keep));
      appended_total_ += keep;
      throw CrashInjected(*crash_at_);
    }
    append(journal_, record);
    appended_total_ += record.size();
  }

  Bytes read_journal() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return journal_;
  }

  void reset_journal() override {
    std::lock_guard<std::mutex> lock(mu_);
    journal_.clear();
  }

  void write_snapshot(BytesView blob) override {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_.assign(blob.begin(), blob.end());
  }

  Bytes read_snapshot() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return snapshot_;
  }

  std::uint64_t journal_bytes() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return journal_.size();
  }

  std::uint64_t appended_total() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return appended_total_;
  }

  bool supports_crash_injection() const override { return true; }

  void crash_at_bytes(std::uint64_t offset) override {
    std::lock_guard<std::mutex> lock(mu_);
    crash_at_ = offset;
  }

  void clear_crash_point() override {
    std::lock_guard<std::mutex> lock(mu_);
    crash_at_.reset();
  }

  /// Test hook: overwrite the journal wholesale (corruption suites).
  void set_journal(Bytes journal) {
    std::lock_guard<std::mutex> lock(mu_);
    journal_ = std::move(journal);
  }

 private:
  mutable std::mutex mu_;
  Bytes journal_;
  Bytes snapshot_;
  std::uint64_t appended_total_ = 0;
  std::optional<std::uint64_t> crash_at_;
};

}  // namespace tp::store
