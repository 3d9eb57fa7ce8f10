// Concurrent verifier service: the SP's serving runtime.
//
// The protocol logic (ServiceProvider) is strictly sequential by design --
// its correctness argument leans on one-shot challenge maps and a replay
// cache with no interleavings to reason about. This runtime scales it the
// way SEDAT scales attestation verification: partition clients across N
// shards (hash of client id), give each shard its own ServiceProvider and
// its own worker thread, and feed the shards through bounded queues.
// Within a shard everything stays single-threaded; across shards there is
// no shared protocol state at all. The service adds the serving concerns
// the paper's evaluation abstracts away: backpressure, per-request
// deadlines, graceful drain, and metrics.
//
// Thread-safety contract:
//   - submit()/try_submit()/call() are safe from any number of threads.
//   - shard_sp() must only be touched while the service is NOT running
//     (before start() or after drain()/shutdown_now()).
//   - metrics()/stats() are safe at any time (atomic snapshots).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "sp/service_provider.h"
#include "svc/bounded_queue.h"
#include "svc/shard_router.h"
#include "util/bytes.h"

namespace tp::svc {

enum class SvcStatus : std::uint8_t {
  kOk = 0,          // frame holds the SP's response
  kDeadlineExpired, // request sat in the queue past its deadline
  kQueueFull,       // try_submit with the shard queue at capacity
  kShutdown,        // service not running / draining
};

constexpr const char* svc_status_name(SvcStatus s) {
  switch (s) {
    case SvcStatus::kOk: return "ok";
    case SvcStatus::kDeadlineExpired: return "deadline_expired";
    case SvcStatus::kQueueFull: return "queue_full";
    case SvcStatus::kShutdown: return "shutdown";
  }
  return "unknown";
}

struct SvcResponse {
  SvcStatus status = SvcStatus::kShutdown;
  Bytes frame;  // SP response frame; empty unless status == kOk
};

struct SvcConfig {
  /// Number of SP shards (== worker threads). Must be >= 1: the
  /// constructor throws std::invalid_argument on 0 rather than silently
  /// picking a value (a config asking for "no workers" is a bug).
  std::size_t num_workers = 4;
  /// Per-shard queue bound (the backpressure point). Must be >= 1; the
  /// constructor throws std::invalid_argument on 0 (an unbuffered queue
  /// would deadlock every producer).
  std::size_t queue_depth = 256;
  /// Upper bound on how many queued requests a worker drains per wakeup
  /// (clamped to [1, queue_depth]). Everything drained in one wakeup is
  /// handed to the shard SP as one handle_frame_batch call, so the queue
  /// hand-off cost (condvar wakeup + lock round trip) amortizes across
  /// the batch, and so does a durable SP's journal commit (one write +
  /// fdatasync per batch). 1 restores the one-frame-per-wakeup
  /// behaviour. Latency under light load is
  /// unaffected either way: a worker never waits for a batch to fill, it
  /// drains what is there.
  std::size_t max_batch = 16;
  /// Applied to requests submitted without an explicit deadline;
  /// zero means no deadline.
  std::chrono::milliseconds default_deadline{0};
  /// Template for every shard's ServiceProvider (the shard index is mixed
  /// into the nonce seed and the metrics prefix). Any SimClock set on
  /// `sp.clock` is ignored: the service drives each shard's session
  /// timeline from the same steady clock its queue deadlines use, so
  /// in-queue expiry and protocol session expiry share one timeline.
  /// A durable template (`sp.durable != nullptr`) requires
  /// num_workers == 1 -- a DurableLog serializes one SP's mutations and
  /// cannot be shared across shards; the constructor throws
  /// std::invalid_argument otherwise. Multi-shard durability lives in
  /// the cluster layer, which gives each member service its own log.
  sp::SpConfig sp;
  /// t=0 of every shard's protocol-session timeline. Default
  /// (epoch time_point) means "construction time" -- the seed's
  /// behaviour. A cluster passes one shared instant to every member
  /// service so session deadlines moved by shard handoff keep their
  /// meaning on the destination's timeline.
  std::chrono::steady_clock::time_point epoch{};
  /// External registry; nullptr -> the service owns a private one.
  obs::Registry* metrics = nullptr;
};

class VerifierService {
 public:
  /// Throws std::invalid_argument when the config is unusable
  /// (num_workers == 0 or queue_depth == 0).
  explicit VerifierService(SvcConfig config);
  ~VerifierService();

  VerifierService(const VerifierService&) = delete;
  VerifierService& operator=(const VerifierService&) = delete;

  /// Launches the worker threads. Idempotent while running. A stopped
  /// service can be started again: its queues reopen and every shard SP
  /// keeps the state it had at drain() (the cluster's stop-the-world
  /// rebalance leans on this stop / move state / restart cycle).
  void start();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// True once a shard SP's journal commit threw: an injected crash
  /// (store::CrashInjected) or a storage I/O error (std::runtime_error
  /// from a failed write or fdatasync). The batch in flight and
  /// everything after it fail with kShutdown, and the service stops
  /// accepting; it must be discarded and a replacement rebuilt from the
  /// same DurableLog (whose recovery replays everything the crashed
  /// service acked). Only meaningful for durable configs -- a
  /// non-durable service never crashes this way.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t shard_for(std::string_view client_id) const {
    return router_.shard_for(client_id);
  }

  /// Routes the frame to its client's shard. Blocks for backpressure when
  /// the shard queue is full. The future always resolves exactly once.
  std::future<SvcResponse> submit(const std::string& client_id, Bytes frame);
  std::future<SvcResponse> submit(
      const std::string& client_id, Bytes frame,
      std::chrono::steady_clock::time_point deadline);

  /// Like submit(), but fails fast with kQueueFull instead of blocking.
  std::future<SvcResponse> try_submit(const std::string& client_id,
                                      Bytes frame);

  /// Re-injects a request whose future the caller already handed out:
  /// behaves like submit() but resolves `promise` instead of minting a
  /// new future. This is the cluster's parked-frame replay path -- a
  /// frame parked during a rebalance is re-routed here and its original
  /// caller, still blocked on the future, sees exactly one resolution.
  void submit_with_promise(const std::string& client_id, Bytes frame,
                           std::promise<SvcResponse> promise);

  /// Synchronous convenience: submit and wait. Never deadlocks -- if the
  /// service is not running the response is an immediate kShutdown.
  SvcResponse call(const std::string& client_id, BytesView frame);

  /// Graceful shutdown: stop accepting, let workers finish every queued
  /// request, join. Safe to call twice or on a never-started service.
  void drain();

  /// Fast shutdown: stop accepting, fail still-queued requests with
  /// kShutdown (their futures still resolve), join.
  void shutdown_now();

  /// Direct shard access for setup/inspection; see thread-safety contract.
  sp::ServiceProvider& shard_sp(std::size_t i) { return *shards_[i]->sp; }

  /// Requests currently sitting in the shard queues (point-in-time sum;
  /// safe while running).
  std::size_t queued() const {
    std::size_t n = 0;
    for (const auto& shard : shards_) n += shard->queue->size();
    return n;
  }

  obs::Registry& metrics() { return *registry_; }

  /// Protocol stats aggregated across all shards (safe while running).
  sp::SpStats stats() const;

 private:
  struct Request {
    Bytes frame;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;  // epoch == none
    std::promise<SvcResponse> promise;
  };

  struct Shard {
    std::unique_ptr<sp::ServiceProvider> sp;
    std::unique_ptr<BoundedQueue<Request>> queue;
    std::thread worker;
  };

  std::future<SvcResponse> enqueue(const std::string& client_id, Bytes frame,
                                   std::chrono::steady_clock::time_point
                                       deadline,
                                   bool blocking);
  void worker_loop(std::size_t shard_index);
  void stop_workers(bool process_remaining);

  SvcConfig config_;
  ShardRouter router_;
  /// t=0 of every shard's protocol-session timeline; workers convert
  /// steady_clock instants to SimTime offsets from here.
  std::chrono::steady_clock::time_point epoch_;
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> running_{false};
  std::atomic<bool> accepting_{false};
  std::atomic<bool> discard_remaining_{false};
  std::atomic<bool> crashed_{false};

  // Hot-path instruments, resolved once at construction.
  obs::Counter* c_submitted_;
  obs::Counter* c_completed_;
  obs::Counter* c_expired_;
  obs::Counter* c_rejected_full_;
  obs::Counter* c_rejected_shutdown_;
  obs::Counter* c_backpressure_waits_;
  obs::Histogram* h_queue_wait_;
  obs::Histogram* h_handle_;
  obs::Histogram* h_request_;
  /// Drained-batch sizes ("svc.batch_size", linear-ish buckets from 1):
  /// how much amortization the queue actually delivers under the
  /// offered load, not just what max_batch permits.
  obs::Histogram* h_batch_size_;
};

}  // namespace tp::svc
