// Isolated per-layer costs, taken from outside by timing calls into each
// layer's public functions on the recorded corpus:
//
//   sp     ServiceProvider::handle_frame on a fresh shard SP (same config
//          as the cluster's, so every reply must match the recording)
//   tpm    AttestationVerifyContext construction and verify
//   core   open_envelope + TxConfirm::deserialize
//   store  DurableLog::append / recover / compact on a FileBackend
//   pal    SessionDriver::run, timed while the corpus was minted
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "corpus.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One traced span: an interval on the steady clock (ns since the run's
/// origin), the span that caused it (0 = none; ids are 1-based indices
/// into the trace) and the request it belongs to.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;
  std::uint64_t request = 0;
};

/// In-memory span log, written out once at exit. Bounded: spans beyond
/// `capacity` are counted, not stored.
class Trace {
 public:
  explicit Trace(std::size_t capacity);
  std::int64_t ns(std::chrono::steady_clock::time_point t) const;
  std::uint32_t add(const char* name, std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end,
                    std::uint32_t parent, std::uint64_t request);
  std::size_t dropped() const { return dropped_; }
  std::size_t size() const { return spans_.size(); }
  /// Writes one JSON object per line; returns false on I/O failure.
  bool write(const std::filesystem::path& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

/// The isolated layer measurements, plus the TxConfirm stage medians the
/// traced run's stage table needs.
struct LayerCosts {
  std::vector<Metric> metrics;
  /// TxConfirm stage medians (stats.h group_median over quote formats):
  /// handle_frame, warm verify, decode, and handle_frame's own remainder.
  double sp_confirm_p50_us = 0;
  double verify_p50_us = 0;
  double decode_p50_us = 0;
  double self_p50_us = 0;
  /// Replies from the isolated SP that differed from the recording.
  std::size_t mismatches = 0;
};

/// Measures the sp, tpm, core, store and pal layers on `corpus`.
/// `scratch` is an empty directory for fresh journals; `final_journal` is
/// the last timed pass's journal directory (durable workloads), on which
/// recover and compact are timed.
LayerCosts measure_layers(const Corpus& corpus,
                          const std::filesystem::path& scratch,
                          const std::filesystem::path& final_journal,
                          Trace* trace);

}  // namespace perfbench
