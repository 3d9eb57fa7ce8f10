#include "svc/verifier_service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/log.h"

namespace tp::svc {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

std::future<SvcResponse> immediate(SvcStatus status) {
  std::promise<SvcResponse> promise;
  auto future = promise.get_future();
  promise.set_value(SvcResponse{status, {}});
  return future;
}

SvcConfig validated(SvcConfig config) {
  if (config.queue_depth == 0) {
    throw std::invalid_argument(
        "SvcConfig::queue_depth must be >= 1 (the backpressure bound; 0 "
        "would block every producer forever)");
  }
  config.max_batch = std::clamp<std::size_t>(config.max_batch, 1,
                                             config.queue_depth);
  return config;
}

}  // namespace

VerifierService::VerifierService(SvcConfig config)
    : config_(validated(std::move(config))),
      epoch_(config_.epoch == Clock::time_point{} ? Clock::now()
                                                  : config_.epoch),
      queue_(config_.queue_depth) {
  c_submitted_ = &registry_.counter("svc.requests_submitted");
  c_completed_ = &registry_.counter("svc.requests_completed");
  c_expired_ = &registry_.counter("svc.deadline_expired");
  c_rejected_full_ = &registry_.counter("svc.rejected_queue_full");
  c_rejected_shutdown_ = &registry_.counter("svc.rejected_shutdown");
  c_backpressure_waits_ = &registry_.counter("svc.backpressure_waits");
  h_queue_wait_ = &registry_.histogram("svc.queue_wait_ns");
  h_handle_ = &registry_.histogram("svc.handle_ns");
  h_request_ = &registry_.histogram("svc.request_ns");
  // Batch sizes are small integers, not nanoseconds: buckets start at 1
  // and grow slowly so 1..max_batch each land distinguishably.
  h_batch_size_ = &registry_.histogram(
      "svc.batch_size", obs::Histogram::Options{1, 1 << 20, 1.2});

  sp::SpConfig sp_config = config_.sp;
  sp_config.metrics = &registry_;
  // The worker drives the session timeline from the service's steady
  // clock (see worker_loop), not a simulation clock.
  sp_config.clock = nullptr;
  sp_ = std::make_unique<sp::ServiceProvider>(std::move(sp_config));
}

VerifierService::~VerifierService() { drain(); }

void VerifierService::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  discard_remaining_.store(false, std::memory_order_release);
  // A restart after drain()/shutdown_now() finds the queue closed; the
  // worker is joined at this point, so reopening is race-free.
  queue_.reopen();
  worker_ = std::thread([this] { worker_loop(); });
  accepting_.store(true, std::memory_order_release);
  TP_LOG(kInfo, "svc") << "verifier service started: queue depth "
                       << config_.queue_depth;
}

std::future<SvcResponse> VerifierService::enqueue(Bytes frame,
                                                  Clock::time_point deadline,
                                                  bool blocking) {
  if (!accepting_.load(std::memory_order_acquire)) {
    c_rejected_shutdown_->inc();
    return immediate(SvcStatus::kShutdown);
  }
  Request request;
  request.frame = std::move(frame);
  request.enqueued = Clock::now();
  request.deadline = deadline;
  auto future = request.promise.get_future();
  c_submitted_->inc();

  if (blocking) {
    if (!queue_.try_push(std::move(request))) {
      // Full (or closing): record the backpressure event, then block.
      // try_push leaves `request` intact on failure, so the retry below
      // pushes the same promise.
      c_backpressure_waits_->inc();
      if (!queue_.push(std::move(request))) {
        c_rejected_shutdown_->inc();
        return immediate(SvcStatus::kShutdown);
      }
    }
  } else if (!queue_.try_push(std::move(request))) {
    if (queue_.closed()) {
      c_rejected_shutdown_->inc();
      return immediate(SvcStatus::kShutdown);
    }
    c_rejected_full_->inc();
    return immediate(SvcStatus::kQueueFull);
  }
  return future;
}

std::future<SvcResponse> VerifierService::submit(Bytes frame) {
  Clock::time_point deadline{};  // epoch == no deadline
  if (config_.default_deadline.count() > 0) {
    deadline = Clock::now() + config_.default_deadline;
  }
  return enqueue(std::move(frame), deadline, /*blocking=*/true);
}

std::future<SvcResponse> VerifierService::submit(Bytes frame,
                                                 Clock::time_point deadline) {
  return enqueue(std::move(frame), deadline, /*blocking=*/true);
}

std::future<SvcResponse> VerifierService::try_submit(Bytes frame) {
  Clock::time_point deadline{};
  if (config_.default_deadline.count() > 0) {
    deadline = Clock::now() + config_.default_deadline;
  }
  return enqueue(std::move(frame), deadline, /*blocking=*/false);
}

SvcResponse VerifierService::call(BytesView frame) {
  return submit(Bytes(frame.begin(), frame.end())).get();
}

void VerifierService::submit_with_promise(Bytes frame,
                                          std::promise<SvcResponse> promise) {
  if (!accepting_.load(std::memory_order_acquire)) {
    c_rejected_shutdown_->inc();
    promise.set_value(SvcResponse{SvcStatus::kShutdown, {}});
    return;
  }
  Request request;
  request.frame = std::move(frame);
  request.enqueued = Clock::now();
  if (config_.default_deadline.count() > 0) {
    request.deadline = request.enqueued + config_.default_deadline;
  }
  request.promise = std::move(promise);
  c_submitted_->inc();
  if (!queue_.try_push(std::move(request))) {
    c_backpressure_waits_->inc();
    // A failed push leaves `request` (and its promise) intact, so the
    // caller's future still resolves exactly once.
    if (!queue_.push(std::move(request))) {
      c_rejected_shutdown_->inc();
      request.promise.set_value(SvcResponse{SvcStatus::kShutdown, {}});
    }
  }
}

void VerifierService::worker_loop() {
  std::vector<Request> batch;
  std::vector<std::size_t> live;        // indices that reach the SP
  std::vector<BytesView> frames;        // their frames
  batch.reserve(config_.max_batch);
  live.reserve(config_.max_batch);
  frames.reserve(config_.max_batch);

  // One wakeup drains up to max_batch queued requests; everything that
  // survives the per-request deadline/shutdown screens reaches the SP as
  // ONE handle_frame_batch call (answer-for-answer equivalent to
  // per-frame handling, but a durable SP commits the batch's journal
  // records with one write + fdatasync before the call returns -- so no
  // reply below is released before its record is on disk).
  while (queue_.pop_batch(batch, config_.max_batch) > 0) {
    const auto start = Clock::now();
    h_batch_size_->record(batch.size());
    live.clear();
    frames.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Request& request = batch[i];
      h_queue_wait_->record(ns_between(request.enqueued, start));
      if (discard_remaining_.load(std::memory_order_acquire)) {
        c_rejected_shutdown_->inc();
        request.promise.set_value(SvcResponse{SvcStatus::kShutdown, {}});
        continue;
      }
      if (request.deadline != Clock::time_point{} &&
          start > request.deadline) {
        c_expired_->inc();
        request.promise.set_value(
            SvcResponse{SvcStatus::kDeadlineExpired, {}});
        continue;
      }
      live.push_back(i);
      frames.push_back(request.frame);
    }
    if (live.empty()) continue;

    if (crashed_.load(std::memory_order_acquire)) {
      // The SP died mid-commit on an earlier batch. Its journal
      // holds every acked mutation and possibly a torn tail; touching
      // the in-memory SP again could ack work the journal never saw.
      // Fail everything still arriving -- recovery is a rebuild.
      for (const std::size_t i : live) {
        c_rejected_shutdown_->inc();
        batch[i].promise.set_value(SvcResponse{SvcStatus::kShutdown, {}});
      }
      continue;
    }

    std::vector<Bytes> responses;
    try {
      // Protocol-session deadlines run on the same steady clock the
      // queue deadline check above just used, as ns since the service's
      // epoch -- one timeline for both expiry mechanisms.
      obs::ScopedTimer timer(*h_handle_);
      responses = sp_->handle_frame_batch(
          frames,
          SimTime{static_cast<std::int64_t>(ns_between(epoch_, start))});
    } catch (const std::runtime_error& error) {
      // The SP died in its journal commit: an injected crash
      // (store::CrashInjected) or a real I/O error such as ENOSPC from
      // the backend's write or fdatasync. The batch's records are at
      // most partly on disk and none of its replies was returned, so
      // failing every live promise with kShutdown keeps the ack set a
      // subset of the journal -- the invariant recovery leans on. No
      // retry: after a failed fdatasync the page cache cannot be
      // trusted, and a restart rebuilds the SP from the journal.
      crashed_.store(true, std::memory_order_release);
      accepting_.store(false, std::memory_order_release);
      TP_LOG(kWarn, "svc") << "SP died committing its journal ("
                           << error.what()
                           << "); service now rejects all requests";
      for (const std::size_t i : live) {
        c_rejected_shutdown_->inc();
        batch[i].promise.set_value(SvcResponse{SvcStatus::kShutdown, {}});
      }
      continue;
    }
    const auto done = Clock::now();
    for (std::size_t j = 0; j < live.size(); ++j) {
      Request& request = batch[live[j]];
      c_completed_->inc();
      h_request_->record(ns_between(request.enqueued, done));
      request.promise.set_value(
          SvcResponse{SvcStatus::kOk, std::move(responses[j])});
    }
  }
}

void VerifierService::stop_worker(bool process_remaining) {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  accepting_.store(false, std::memory_order_release);
  discard_remaining_.store(!process_remaining, std::memory_order_release);
  queue_.close();
  if (worker_.joinable()) worker_.join();
  TP_LOG(kInfo, "svc") << "verifier service stopped ("
                       << (process_remaining ? "drained" : "aborted") << ", "
                       << c_completed_->value() << " requests served)";
}

void VerifierService::drain() { stop_worker(/*process_remaining=*/true); }

void VerifierService::shutdown_now() {
  stop_worker(/*process_remaining=*/false);
}

}  // namespace tp::svc
