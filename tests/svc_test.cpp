// Concurrent verifier service: the bounded queue and the one-SP serving
// runtime (sharding across services is the cluster's, see cluster_test).
//
// These tests are labelled `concurrency` in CTest; run them under TSan via
//   cmake -B build-tsan -DTP_SANITIZE=thread && cmake --build build-tsan
//   ctest --test-dir build-tsan -L concurrency
#include "svc/verifier_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/messages.h"
#include "svc/bounded_queue.h"

namespace tp::svc {
namespace {

using core::MsgType;
using core::TxChallenge;
using core::TxSubmit;

Bytes tx_submit_frame(const std::string& client_id, std::uint64_t i) {
  TxSubmit submit{client_id, "pay " + std::to_string(i), Bytes(32, 7)};
  return core::envelope(MsgType::kTxSubmit, submit.serialize());
}

// ---- BoundedQueue ------------------------------------------------------

TEST(BoundedQueue, FifoOrderSingleThread) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedQueue, TryPushFailsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_TRUE(q.try_push(3));
}

TEST(BoundedQueue, PushBlocksUntilCapacityFrees) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.push(2);  // blocks: queue is full
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // still parked on the full queue
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueue, CloseRejectsPushesAndDrainsPops) {
  BoundedQueue<int> q(8);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_FALSE(q.try_push(4));
  EXPECT_EQ(q.pop().value(), 1);   // drain continues after close
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());  // closed and empty
}

TEST(BoundedQueue, CloseWakesBlockedConsumers) {
  BoundedQueue<int> q(2);
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
}

TEST(BoundedQueue, MpmcStressNoLossNoDuplication) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 4000;  // 16k items through a depth-64 queue
  BoundedQueue<int> q(64);

  std::vector<std::vector<int>> received(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&q, &received, c] {
      while (auto item = q.pop()) received[c].push_back(*item);
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  std::vector<int> all;
  for (const auto& r : received) all.insert(all.end(), r.begin(), r.end());
  ASSERT_EQ(all.size(),
            static_cast<std::size_t>(kProducers) * kPerProducer);
  std::sort(all.begin(), all.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    ASSERT_EQ(all[static_cast<std::size_t>(i)], i);  // none lost, none twice
  }
}

// ---- VerifierService ---------------------------------------------------

SvcConfig small_config(std::size_t depth = 64) {
  SvcConfig config;
  config.queue_depth = depth;
  return config;
}

TEST(VerifierService, RejectsUnusableConfigAtConstruction) {
  // "No queue" is a bug in the caller's config, not a value to silently
  // repair: the constructor must throw, before any thread or queue
  // exists.
  EXPECT_THROW(VerifierService{small_config(0)}, std::invalid_argument);
  try {
    VerifierService service(small_config(0));
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("queue_depth"), std::string::npos);
  }
}

TEST(VerifierService, ServesFramesOnAllShards) {
  VerifierService service(small_config());
  service.start();
  for (int i = 0; i < 32; ++i) {
    const std::string id = "client-" + std::to_string(i);
    const SvcResponse response =
        service.call(tx_submit_frame(id, static_cast<std::uint64_t>(i)));
    ASSERT_EQ(response.status, SvcStatus::kOk);
    auto opened = core::open_envelope(response.frame);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(opened.value().first, MsgType::kTxChallenge);
  }
  service.drain();
  EXPECT_EQ(service.metrics().counter("svc.requests_completed").value(), 32u);
}

TEST(VerifierService, NotStartedRespondsShutdownInsteadOfDeadlocking) {
  VerifierService service(small_config());
  EXPECT_EQ(service.call(tx_submit_frame("alice", 1)).status,
            SvcStatus::kShutdown);
}

// Multi-producer stress: >= 4 producer threads, >= 10k requests, every
// request answered exactly once with its own challenge.
TEST(VerifierService, MultiProducerStressNoLostOrDuplicatedResponses) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2500;  // 10k total
  VerifierService service(small_config(/*depth=*/128));
  service.start();

  std::mutex mu;
  std::set<std::uint64_t> challenge_ids;
  std::atomic<std::uint64_t> ok_count{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Each producer talks for a disjoint set of clients, all queued
      // for the one SP.
      std::vector<std::future<SvcResponse>> pending;
      pending.reserve(kPerProducer);
      for (int i = 0; i < kPerProducer; ++i) {
        const std::string id =
            "stress-" + std::to_string(p) + "-" + std::to_string(i % 8);
        pending.push_back(
            service.submit(tx_submit_frame(id, static_cast<std::uint64_t>(i))));
      }
      for (std::size_t i = 0; i < pending.size(); ++i) {
        SvcResponse response = pending[i].get();
        ASSERT_EQ(response.status, SvcStatus::kOk);
        auto opened = core::open_envelope(response.frame);
        ASSERT_TRUE(opened.ok());
        auto challenge = TxChallenge::deserialize(opened.value().second);
        ASSERT_TRUE(challenge.ok());
        ok_count.fetch_add(1);
        std::lock_guard<std::mutex> lock(mu);
        // The tx id is unique iff no request was double-served.
        ASSERT_TRUE(challenge_ids.insert(challenge.value().tx_id).second);
      }
    });
  }
  for (auto& t : producers) t.join();
  service.drain();

  const auto total = static_cast<std::uint64_t>(kProducers) * kPerProducer;
  EXPECT_EQ(ok_count.load(), total);
  EXPECT_EQ(challenge_ids.size(), total);
  EXPECT_EQ(service.metrics().counter("svc.requests_completed").value(),
            total);
  EXPECT_EQ(service.metrics().counter("svc.requests_submitted").value(),
            total);
}

TEST(VerifierService, ExpiredDeadlineIsRejectedWithoutServing) {
  VerifierService service(small_config());
  service.start();
  auto expired = service.submit(
      tx_submit_frame("alice", 1),
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5));
  EXPECT_EQ(expired.get().status, SvcStatus::kDeadlineExpired);

  auto alive = service.submit(
      tx_submit_frame("alice", 2),
      std::chrono::steady_clock::now() + std::chrono::seconds(30));
  EXPECT_EQ(alive.get().status, SvcStatus::kOk);
  service.drain();
  EXPECT_EQ(service.metrics().counter("svc.deadline_expired").value(), 1u);
  EXPECT_EQ(service.metrics().counter("svc.requests_completed").value(), 1u);
}

TEST(VerifierService, DefaultDeadlineAppliesToSubmit) {
  SvcConfig config = small_config(/*depth=*/4);
  config.default_deadline = std::chrono::milliseconds(1);
  VerifierService service(std::move(config));
  service.start();
  // Saturate the worker so later requests out-wait the 1ms budget.
  std::vector<std::future<SvcResponse>> pending;
  for (int i = 0; i < 200; ++i) {
    pending.push_back(service.submit(
        tx_submit_frame("one-client", static_cast<std::uint64_t>(i))));
  }
  std::size_t expired = 0;
  for (auto& f : pending) {
    if (f.get().status == SvcStatus::kDeadlineExpired) ++expired;
  }
  service.drain();
  EXPECT_EQ(service.metrics().counter("svc.deadline_expired").value(),
            expired);
}

TEST(VerifierService, TrySubmitReportsQueueFull) {
  VerifierService service(small_config(/*depth=*/2));
  service.start();
  // Stall the worker with a burst, then try_submit until one bounces.
  bool saw_full = false;
  std::vector<std::future<SvcResponse>> pending;
  for (int i = 0; i < 5000 && !saw_full; ++i) {
    auto f = service.try_submit(
        tx_submit_frame("alice", static_cast<std::uint64_t>(i)));
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      auto response = f.get();
      if (response.status == SvcStatus::kQueueFull) saw_full = true;
    } else {
      pending.push_back(std::move(f));
    }
  }
  for (auto& f : pending) f.get();
  service.drain();
  EXPECT_TRUE(saw_full);
  EXPECT_GE(service.metrics().counter("svc.rejected_queue_full").value(), 1u);
}

// Drain under fire: every submitted request's future must resolve exactly
// once, as either a served response or an explicit shutdown rejection.
TEST(VerifierService, DrainDuringLoadResolvesEveryRequest) {
  constexpr int kProducers = 4;
  VerifierService service(small_config(/*depth=*/32));
  service.start();

  std::atomic<std::uint64_t> ok{0}, shutdown{0}, other{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> submitted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::string id = "drain-" + std::to_string(p);
        auto future = service.submit(tx_submit_frame(id, i++));
        submitted.fetch_add(1);
        switch (future.get().status) {
          case SvcStatus::kOk: ok.fetch_add(1); break;
          case SvcStatus::kShutdown: shutdown.fetch_add(1); break;
          default: other.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.drain();  // while producers are still submitting
  stop.store(true, std::memory_order_release);
  for (auto& t : producers) t.join();

  EXPECT_EQ(ok.load() + shutdown.load(), submitted.load());
  EXPECT_EQ(other.load(), 0u);
  EXPECT_GT(ok.load(), 0u);        // it served real traffic before the drain
  EXPECT_GT(shutdown.load(), 0u);  // and rejected cleanly after it
  EXPECT_EQ(service.metrics().counter("svc.requests_completed").value(),
            ok.load());
}

TEST(VerifierService, ShutdownNowFailsQueuedWorkButResolvesFutures) {
  VerifierService service(small_config(/*depth=*/512));
  service.start();
  std::vector<std::future<SvcResponse>> pending;
  for (int i = 0; i < 300; ++i) {
    pending.push_back(service.submit(
        tx_submit_frame("burst", static_cast<std::uint64_t>(i))));
  }
  service.shutdown_now();
  std::uint64_t resolved = 0;
  for (auto& f : pending) {
    const SvcStatus status = f.get().status;
    EXPECT_TRUE(status == SvcStatus::kOk || status == SvcStatus::kShutdown);
    ++resolved;
  }
  EXPECT_EQ(resolved, 300u);
}

}  // namespace
}  // namespace tp::svc
