// Verifier service: one SP's serving runtime.
//
// The protocol logic (ServiceProvider) is strictly sequential by design --
// its correctness argument leans on one-shot challenge maps and a replay
// cache with no interleavings to reason about. This runtime puts one SP
// behind one bounded queue and one worker thread, and adds the serving
// concerns the paper's evaluation abstracts away: backpressure,
// per-request deadlines, batched draining (one journal commit per batch
// on a durable SP), crash latching, graceful drain, and metrics. Scaling
// out is the cluster's job (cluster::VerifierCluster shards clients
// across many of these services, SEDAT-style: per-device verification is
// embarrassingly parallel).
//
// Thread-safety contract:
//   - submit()/try_submit()/call() are safe from any number of threads.
//   - sp() must only be touched while the service is NOT running
//     (before start() or after drain()/shutdown_now()).
//   - metrics()/stats() are safe at any time (atomic snapshots).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <thread>

#include "obs/metrics.h"
#include "sp/service_provider.h"
#include "svc/bounded_queue.h"
#include "util/bytes.h"

namespace tp::svc {

enum class SvcStatus : std::uint8_t {
  kOk = 0,          // frame holds the SP's response
  kDeadlineExpired, // request sat in the queue past its deadline
  kQueueFull,       // try_submit with the queue at capacity
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
  /// Queue bound (the backpressure point). Must be >= 1; the constructor
  /// throws std::invalid_argument on 0 (an unbuffered queue would
  /// deadlock every producer).
  std::size_t queue_depth = 256;
  /// Upper bound on how many queued requests the worker drains per wakeup
  /// (clamped to [1, queue_depth]). Everything drained in one wakeup is
  /// handed to the SP as one handle_frame_batch call, so the queue
  /// hand-off cost (condvar wakeup + lock round trip) amortizes across
  /// the batch, and so does a durable SP's journal commit (one write +
  /// fdatasync per batch). 1 restores the one-frame-per-wakeup
  /// behaviour. Latency under light load is unaffected either way: the
  /// worker never waits for a batch to fill, it drains what is there.
  std::size_t max_batch = 16;
  /// Applied to requests submitted without an explicit deadline;
  /// zero means no deadline.
  std::chrono::milliseconds default_deadline{0};
  /// The ServiceProvider's config. Two fields are overridden: `sp.clock`
  /// is ignored, because the worker drives the SP's session timeline
  /// from the same steady clock its queue deadlines use, so in-queue
  /// expiry and protocol session expiry share one timeline; and
  /// `sp.metrics` is pointed at the service's own registry, so one
  /// registry carries "svc.*" and "sp.*". A durable config
  /// (`sp.durable != nullptr`) gives this one SP its write-ahead log.
  sp::SpConfig sp;
  /// t=0 of the SP's protocol-session timeline. Default (epoch
  /// time_point) means "construction time". A cluster passes one shared
  /// instant to every member service so session deadlines moved by shard
  /// handoff keep their meaning on the destination's timeline.
  std::chrono::steady_clock::time_point epoch{};
};

class VerifierService {
 public:
  /// Throws std::invalid_argument when queue_depth == 0.
  explicit VerifierService(SvcConfig config);
  ~VerifierService();

  VerifierService(const VerifierService&) = delete;
  VerifierService& operator=(const VerifierService&) = delete;

  /// Launches the worker thread. Idempotent while running. A stopped
  /// service can be started again: its queue reopens and the SP keeps
  /// the state it had at drain() (the cluster's stop-the-world rebalance
  /// leans on this stop / move state / restart cycle).
  void start();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// True once the SP's journal commit threw: an injected crash
  /// (store::CrashInjected) or a storage I/O error (std::runtime_error
  /// from a failed write or fdatasync). The batch in flight and
  /// everything after it fail with kShutdown, and the service stops
  /// accepting; it must be discarded and a replacement rebuilt from the
  /// same DurableLog (whose recovery replays everything the crashed
  /// service acked). Only meaningful for durable configs -- a
  /// non-durable service never crashes this way.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  /// Queues the frame for the SP. Blocks for backpressure when the queue
  /// is full. The future always resolves exactly once.
  std::future<SvcResponse> submit(Bytes frame);
  std::future<SvcResponse> submit(
      Bytes frame, std::chrono::steady_clock::time_point deadline);

  /// Like submit(), but fails fast with kQueueFull instead of blocking.
  std::future<SvcResponse> try_submit(Bytes frame);

  /// Re-injects a request whose future the caller already handed out:
  /// behaves like submit() but resolves `promise` instead of minting a
  /// new future. This is the cluster's parked-frame replay path -- a
  /// frame parked during a rebalance is re-routed here and its original
  /// caller, still blocked on the future, sees exactly one resolution.
  void submit_with_promise(Bytes frame, std::promise<SvcResponse> promise);

  /// Synchronous convenience: submit and wait. Never deadlocks -- if the
  /// service is not running the response is an immediate kShutdown.
  SvcResponse call(BytesView frame);

  /// Graceful shutdown: stop accepting, let workers finish every queued
  /// request, join. Safe to call twice or on a never-started service.
  void drain();

  /// Fast shutdown: stop accepting, fail still-queued requests with
  /// kShutdown (their futures still resolve), join.
  void shutdown_now();

  /// Direct SP access for setup/inspection; see thread-safety contract.
  sp::ServiceProvider& sp() { return *sp_; }

  /// Requests currently queued (point-in-time; safe while running).
  std::size_t queued() const { return queue_.size(); }

  /// The service's registry: its own "svc.*" instruments and its SP's
  /// "sp.*" ones.
  obs::Registry& metrics() { return registry_; }

  /// The SP's protocol stats (safe while running).
  sp::SpStats stats() const { return sp_->stats(); }

 private:
  struct Request {
    Bytes frame;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;  // epoch == none
    std::promise<SvcResponse> promise;
  };

  std::future<SvcResponse> enqueue(Bytes frame,
                                   std::chrono::steady_clock::time_point
                                       deadline,
                                   bool blocking);
  void worker_loop();
  void stop_worker(bool process_remaining);

  SvcConfig config_;
  /// t=0 of the SP's protocol-session timeline; the worker converts
  /// steady_clock instants to SimTime offsets from here.
  std::chrono::steady_clock::time_point epoch_;
  /// Declared before sp_, whose instruments live in it.
  obs::Registry registry_;
  std::unique_ptr<sp::ServiceProvider> sp_;
  BoundedQueue<Request> queue_;
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
  /// Declared last: it uses every member above.
  std::thread worker_;
};

}  // namespace tp::svc
