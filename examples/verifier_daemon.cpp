// Verifier daemon: the full lifecycle of the serving runtime.
//
//   start  -> spin up a cluster of verifier shards (each one SP behind a
//             bounded queue and a worker thread) behind the
//             consistent-hash router
//   serve  -> a fleet of real clients enrolls and confirms transactions
//             through the cluster (TPM quote checks, PAL sessions, RSA
//             signature verification -- nothing is stubbed)
//   drain  -> stop accepting, finish every queued request, join workers
//   dump   -> print the metrics registries the shards accumulated
//
// Build & run:  ./build/examples/verifier_daemon
//
// Chaos knobs (deterministic fault injection on every member's link):
//   --drop-pct=P    drop P% of messages in each direction (0..100)
//   --fault-seed=N  seed of the replayable fault stream (same N -> same
//                   drops; the daemon prints the seed so a run can be
//                   reproduced exactly)
// Fleet composition:
//   --backend=B     tpm12 (default), tpm2, or mixed -- 'mixed' alternates
//                   TPM 1.2 and 2.0 machines round-robin, so the run
//                   demonstrates one SP verifying RSA/SHA-1 quotes and
//                   ECDSA/SHA-256 quotes side by side (the dump shows the
//                   per-backend accept counters)
// Serving runtime:
//   --shards=N      cluster of N shared-nothing shards (default 2)
//   --max-batch=N   cap on how many queued requests a worker drains per
//                   wakeup (default 16; 1 disables batching). At exit
//                   the daemon summarizes the svc.batch_size histogram:
//                   how much amortization the offered load actually
//                   produced, not just what the cap permitted
//   --rebalance-at=R  after serving round R a new shard joins live --
//                   sessions and exactly-once state for the moved key
//                   range are handed off mid-run, and the remaining
//                   rounds must still confirm every payment
// Durability:
//   --journal-dir=D write-ahead journal + snapshot per shard, shard k
//                   under D/shard<k> (one fdatasync per drained batch,
//                   before any of its replies is released). Startup
//                   replays whatever the directories hold and prints the
//                   recovery counters, so running the daemon twice with
//                   the same D demonstrates restart across real process
//                   exits
//   --crash-at=N    with --journal-dir: shard 0 dies at cumulative
//                   journal byte offset N -- the append crossing N
//                   persists only a torn prefix, the shard flips to
//                   kShutdown, and the daemon restarts it from its
//                   journal mid-run, printing what recovery replayed
// With faults on, clients retransmit with backoff and the SP's
// idempotent replay layer absorbs the duplicates. The daemon exits 0 only
// when every transaction was confirmed.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/verifier_cluster.h"
#include "pal/human_agent.h"
#include "sp/fleet.h"
#include "store/file_backend.h"

using namespace tp;

namespace {

/// Crash-injection shim over a FileBackend (which does not carry one
/// itself): the append crossing the armed cumulative offset persists
/// only the prefix up to it -- a genuinely torn record on disk -- and
/// throws CrashInjected, as does everything after until the cluster
/// clears the point and restarts the shard.
class CrashableBackend final : public store::StorageBackend {
 public:
  explicit CrashableBackend(std::unique_ptr<store::StorageBackend> inner)
      : inner_(std::move(inner)) {}

  void append_journal(BytesView record) override {
    const std::uint64_t at = inner_->appended_total();
    if (crash_at_.has_value() && at + record.size() > *crash_at_) {
      if (*crash_at_ > at) {
        inner_->append_journal(record.first(*crash_at_ - at));
      }
      throw store::CrashInjected(*crash_at_);
    }
    inner_->append_journal(record);
  }
  Bytes read_journal() const override { return inner_->read_journal(); }
  void reset_journal() override { inner_->reset_journal(); }
  void write_snapshot(BytesView blob) override {
    inner_->write_snapshot(blob);
  }
  Bytes read_snapshot() const override { return inner_->read_snapshot(); }
  std::uint64_t journal_bytes() const override {
    return inner_->journal_bytes();
  }
  std::uint64_t appended_total() const override {
    return inner_->appended_total();
  }
  bool supports_crash_injection() const override { return true; }
  void crash_at_bytes(std::uint64_t offset) override { crash_at_ = offset; }
  void clear_crash_point() override { crash_at_.reset(); }

 private:
  std::unique_ptr<store::StorageBackend> inner_;
  std::optional<std::uint64_t> crash_at_;
};

}  // namespace

int main(int argc, char** argv) {
  double drop_pct = 0.0;
  std::uint64_t fault_seed = 0x6461656d6f6eull;  // "daemon"
  std::string backend = "tpm12";
  std::size_t max_batch = 16;
  std::size_t shards = 2;
  std::size_t rebalance_at = SIZE_MAX;
  std::string journal_dir;
  std::uint64_t crash_at = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--drop-pct=", 0) == 0) {
      drop_pct = std::strtod(arg.c_str() + 11, nullptr);
    } else if (arg.rfind("--fault-seed=", 0) == 0) {
      fault_seed = std::strtoull(arg.c_str() + 13, nullptr, 10);
    } else if (arg.rfind("--max-batch=", 0) == 0) {
      max_batch = std::strtoull(arg.c_str() + 12, nullptr, 10);
      if (max_batch == 0) {
        std::fprintf(stderr, "--max-batch must be >= 1\n");
        return 2;
      }
    } else if (arg.rfind("--shards=", 0) == 0) {
      shards = std::strtoull(arg.c_str() + 9, nullptr, 10);
      if (shards == 0) {
        std::fprintf(stderr, "--shards must be >= 1\n");
        return 2;
      }
    } else if (arg.rfind("--rebalance-at=", 0) == 0) {
      rebalance_at = std::strtoull(arg.c_str() + 15, nullptr, 10);
    } else if (arg.rfind("--journal-dir=", 0) == 0) {
      journal_dir = arg.substr(14);
    } else if (arg.rfind("--crash-at=", 0) == 0) {
      crash_at = std::strtoull(arg.c_str() + 11, nullptr, 10);
      if (crash_at == 0) {
        std::fprintf(stderr, "--crash-at must be >= 1\n");
        return 2;
      }
    } else if (arg.rfind("--backend=", 0) == 0) {
      backend = arg.substr(10);
      if (backend != "tpm12" && backend != "tpm2" && backend != "mixed") {
        std::fprintf(stderr, "--backend must be tpm12, tpm2 or mixed\n");
        return 2;
      }
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--drop-pct=P] [--fault-seed=N] "
          "[--backend=tpm12|tpm2|mixed] [--max-batch=N] [--shards=N] "
          "[--rebalance-at=R] [--journal-dir=D] [--crash-at=N]\n",
          argv[0]);
      return 2;
    }
  }
  if (crash_at != 0 && journal_dir.empty()) {
    std::fprintf(stderr, "--crash-at requires --journal-dir\n");
    return 2;
  }
  if (drop_pct < 0.0 || drop_pct > 100.0) {
    std::fprintf(stderr, "--drop-pct must be in [0, 100]\n");
    return 2;
  }

  // 1. A small fleet of client machines, each with its own TPM + DRTM
  //    platform, all certified by one Privacy CA.
  sp::FleetConfig fleet_config;
  fleet_config.num_clients = 4;
  fleet_config.seed = bytes_of("daemon");
  fleet_config.tpm_key_bits = 768;
  fleet_config.client_key_bits = 768;
  if (backend == "tpm2") {
    fleet_config.backend_mix = {tpm::QuoteFormat::kTpm2};
  } else if (backend == "mixed") {
    fleet_config.backend_mix = {tpm::QuoteFormat::kTpm12,
                                tpm::QuoteFormat::kTpm2};
  }
  if (drop_pct > 0.0) {
    net::FaultProfile profile;
    profile.drop_prob = drop_pct / 100.0;
    fleet_config.net.fault =
        net::FaultPlan::symmetric(profile, fault_seed);
    // Faulty link -> retrying clients (a retry replays the SP's cached
    // response, so re-delivery can never double-confirm).
    fleet_config.client_retry.max_attempts = 16;
    fleet_config.client_retry.backoff_base = SimDuration::millis(50);
    std::printf("fault injection: drop %.1f%% each way, seed %llu\n",
                drop_pct, static_cast<unsigned long long>(fault_seed));
  }
  sp::Fleet fleet(fleet_config);

  // 2. Start the daemon: a verifier cluster of N shared-nothing shards
  //    behind the consistent-hash router. The fleet's members are
  //    rerouted from the built-in single-threaded SP to the cluster.
  constexpr std::size_t kQueueDepth = 64;
  cluster::ClusterConfig cc;
  cc.num_shards = shards;
  cc.svc.queue_depth = kQueueDepth;
  cc.svc.max_batch = max_batch;
  cc.svc.default_deadline = std::chrono::milliseconds(2000);
  cc.svc.sp = fleet.sp_config();
  if (!journal_dir.empty()) {
    std::filesystem::create_directories(journal_dir);
    cc.durable_backend_factory = [&journal_dir](std::uint32_t id)
        -> std::unique_ptr<store::StorageBackend> {
      return std::make_unique<CrashableBackend>(
          std::make_unique<store::FileBackend>(journal_dir + "/shard" +
                                               std::to_string(id)));
    };
  }
  cluster::VerifierCluster vcluster(std::move(cc));
  // What recovery replayed into each shard (every counter is 0 on a fresh
  // directory; a second run over the same directory shows the restart).
  const auto print_recovery = [&](std::uint32_t id) {
    obs::Registry& registry = vcluster.shard_service(id).metrics();
    std::printf(
        "journal %s/shard%u: replayed %llu record(s), torn tail %llu "
        "byte(s)\n",
        journal_dir.c_str(), id,
        static_cast<unsigned long long>(
            registry.counter("sp.recovery.replayed_records").value()),
        static_cast<unsigned long long>(
            registry.counter("sp.recovery.truncated_tail").value()));
  };
  if (!journal_dir.empty()) {
    for (const std::uint32_t id : vcluster.shard_ids()) print_recovery(id);
  }
  if (crash_at != 0) vcluster.kill_shard(0, crash_at);
  vcluster.start();
  fleet.route_frames_to([&vcluster](const std::string& id, BytesView frame) {
    return vcluster.call(id, frame).frame;
  });
  std::printf(
      "daemon up: cluster of %zu shard(s), queue depth %zu, max batch %zu\n",
      vcluster.num_shards(), kQueueDepth, max_batch);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    std::printf("  %-18s (%s) -> cluster shard %u\n",
                fleet.client_id(i).c_str(),
                tpm::quote_format_name(fleet.backend(i)),
                vcluster.shard_for(fleet.client_id(i)));
  }

  // Every registry the runtime writes: each shard's own (per-shard stats
  // must not alias).
  const auto each_registry =
      [&](const std::function<void(obs::Registry&)>& fn) {
        for (const std::uint32_t sid : vcluster.shard_ids()) {
          fn(vcluster.shard_service(sid).metrics());
        }
      };

  // 3. Serve: enroll everyone, then each client confirms a few payments
  //    over the trusted path. Every frame flows through the cluster.
  std::vector<std::unique_ptr<pal::HumanAgent>> users;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    auto agent = std::make_unique<pal::HumanAgent>(
        devices::HumanModel(devices::HumanParams{}, SimRng(7000 + i)),
        "pay 25 EUR to carol");
    fleet.client(i).set_user_agent(agent.get());
    users.push_back(std::move(agent));
  }
  const std::size_t enrolled = fleet.enroll_all();
  std::printf("enrolled %zu/%zu clients through the cluster\n", enrolled,
              fleet.size());
  if (enrolled != fleet.size()) {
    if (crash_at != 0 && vcluster.shard_crashed(0)) {
      std::fprintf(stderr,
                   "shard 0 crashed during enrollment (--crash-at=%llu fired "
                   "too early); pick an offset past the enrollment records\n",
                   static_cast<unsigned long long>(crash_at));
    }
    return 1;
  }

  // Periodic metrics dump: after every serving round, the daemon reports
  // session-table pressure -- live half-open sessions per shard (gauges)
  // and cumulative eviction/expiry counts -- the numbers an operator
  // would watch to spot an EnrollBegin/TxSubmit flood.
  const auto dump_session_metrics = [&](std::size_t round) {
    std::int64_t open_sessions = 0;
    each_registry([&open_sessions](obs::Registry& registry) {
      for (const auto& g : registry.gauges()) {
        if (g.name == "sp.enroll_sessions" || g.name == "sp.tx_sessions") {
          open_sessions += g.value;
        }
      }
    });
    const sp::SpStats snap = vcluster.stats();
    std::printf(
        "  [round %zu] session tables: open=%lld evicted=%llu expired=%llu\n",
        round, static_cast<long long>(open_sessions),
        static_cast<unsigned long long>(snap.sessions_evicted),
        static_cast<unsigned long long>(snap.sessions_expired));
  };

  std::size_t confirmed = 0, submitted = 0, shard_restarts = 0;
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      ++submitted;
      const Bytes order =
          bytes_of("order " + std::to_string(round * fleet.size() + i));
      auto outcome =
          fleet.client(i).submit_transaction("pay 25 EUR to carol", order);
      if (crash_at != 0 && vcluster.shard_crashed(0)) {
        // The armed journal offset fired mid-frame: shard 0's worker saw
        // CrashInjected, the shard flipped to kShutdown, and the disk
        // holds a torn record. Restart the shard from its journal --
        // everything acked before the crash replays -- and retry the
        // interrupted transaction against the successor.
        std::printf(
            "  [round %zu] shard 0 crashed at journal offset %llu -- "
            "restarting it from its journal\n",
            round, static_cast<unsigned long long>(crash_at));
        vcluster.restart_shard(0);
        ++shard_restarts;
        print_recovery(0);
        outcome =
            fleet.client(i).submit_transaction("pay 25 EUR to carol", order);
      }
      if (outcome.ok() && outcome.value().accepted) ++confirmed;
    }
    dump_session_metrics(round);
    if (round == rebalance_at) {
      // Live resize mid-run: a new shard joins, the moved key range's
      // sessions and exactly-once state follow it, and the remaining
      // rounds keep confirming through the new ring.
      const std::uint32_t nid = vcluster.add_shard();
      std::printf(
          "  [round %zu] cluster shard %u joined live: "
          "remapped_keys=%llu handoff_sessions=%llu parked_frames=%llu\n",
          round, nid,
          static_cast<unsigned long long>(vcluster.remapped_keys()),
          static_cast<unsigned long long>(vcluster.handoff_sessions()),
          static_cast<unsigned long long>(vcluster.parked_frames()));
    }
  }
  std::printf("served: %zu/%zu transactions confirmed\n", confirmed,
              submitted);

  // 4. Drain: graceful shutdown -- in-flight requests finish, workers
  //    join. Further submissions would get an immediate kShutdown.
  vcluster.drain();
  std::printf("drained: cluster of %zu shard(s) stopped\n",
              vcluster.num_shards());
  if (!journal_dir.empty()) {
    for (const std::uint32_t id : vcluster.shard_ids()) {
      std::printf("journal %s/shard%u: %llu byte(s) on disk\n",
                  journal_dir.c_str(), id,
                  static_cast<unsigned long long>(
                      vcluster.shard_backend(id).journal_bytes()));
    }
    std::printf("%zu crash restart(s) this run\n", shard_restarts);
  }

  // 5. Metrics dump: what the daemon observed, per shard and overall.
  const sp::SpStats totals = vcluster.stats();
  std::printf("\nprotocol totals across shards:\n");
  std::printf("  enrolled=%llu tx_accepted=%llu tx_rejected=%llu\n",
              static_cast<unsigned long long>(totals.enrolled),
              static_cast<unsigned long long>(totals.tx_accepted),
              static_cast<unsigned long long>(totals.tx_rejected));
  std::printf(
      "  by backend: tpm12 enrolled=%llu accepted=%llu | "
      "tpm2 enrolled=%llu accepted=%llu\n",
      static_cast<unsigned long long>(
          totals.enrolled_format(tpm::QuoteFormat::kTpm12)),
      static_cast<unsigned long long>(
          totals.tx_accepted_format(tpm::QuoteFormat::kTpm12)),
      static_cast<unsigned long long>(
          totals.enrolled_format(tpm::QuoteFormat::kTpm2)),
      static_cast<unsigned long long>(
          totals.tx_accepted_format(tpm::QuoteFormat::kTpm2)));
  std::printf("  sessions: evicted=%llu expired=%llu\n",
              static_cast<unsigned long long>(totals.sessions_evicted),
              static_cast<unsigned long long>(totals.sessions_expired));
  std::uint64_t drains = 0, drained_frames = 0, max_drain = 0;
  each_registry([&](obs::Registry& registry) {
    for (const auto& h : registry.histograms()) {
      if (h.name != "svc.batch_size") continue;
      drains += h.snapshot.count;
      drained_frames += h.snapshot.sum;
      max_drain = std::max(max_drain, h.snapshot.max);
    }
  });
  if (drains > 0) {
    const double mean = static_cast<double>(drained_frames) /
                        static_cast<double>(drains);
    std::printf(
        "  queue batching (cap %zu): %llu drain(s), batch size "
        "mean=%.2f max=%llu -- %.2f requests amortized per wakeup\n",
        max_batch, static_cast<unsigned long long>(drains), mean,
        static_cast<unsigned long long>(max_drain), mean);
  }
  if (drop_pct > 0.0) {
    std::uint64_t injected = 0, retries = 0, replayed = 0;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      if (fleet.link(i).faults() != nullptr) {
        injected += fleet.link(i).faults()->injected_total();
      }
      retries += fleet.client(i).retries();
    }
    // Replays happen inside the shard SPs; sum their counters.
    each_registry([&replayed](obs::Registry& registry) {
      for (const auto& c : registry.counters()) {
        if (c.name.find(".retry.replayed_") != std::string::npos) {
          replayed += c.value;
        }
      }
    });
    std::printf("  chaos: faults_injected=%llu client_retries=%llu "
                "sp_replays=%llu (seed %llu)\n",
                static_cast<unsigned long long>(injected),
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(replayed),
                static_cast<unsigned long long>(fault_seed));
  }
  // Cluster-level registry: router counters + per-shard gauges.
  vcluster.publish_gauges();
  std::printf("\ncluster metrics registry:\n%s\n",
              vcluster.metrics().to_json().c_str());
  return confirmed == submitted ? 0 : 1;
}
