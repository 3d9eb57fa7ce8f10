// Experiment F8: recovery cost under injected network faults.
//
// Sweeps the per-message fault rate on the client<->SP link from 0% to
// 30% (a mix of drops, duplicates, reorders and delay spikes, split
// 60/20/10/10) and drives the full stack -- retrying client, idempotent
// SP, perfect human -- through a fixed batch of transactions at each
// point. Reported per rate: how many transactions landed, how many
// retransmissions and SP-side replays that took, and the machine-time
// cost per transaction (the human excluded). The claim: the exactly-once
// machinery turns a 30%-lossy link from "protocol broken" into "same
// outcomes, higher latency" -- goodput stays at 100% while the retry and
// replay counters, not the accept counters, absorb the fault rate.
//
// --json=PATH     also emit the table as JSON for the experiment suite
#include <cstdio>
#include <string>
#include <vector>

#include "devices/human.h"
#include "pal/human_agent.h"
#include "sp/fleet.h"

using namespace tp;

namespace {

constexpr int kTxsPerPoint = 30;

struct Point {
  int accepted = 0;
  int failed = 0;  // transport gave up or SP rejected
  std::uint64_t retries = 0;
  std::uint64_t replays = 0;
  std::uint64_t faults = 0;
  double machine_ms_per_tx = 0.0;
};

Point run_rate(double rate_pct) {
  const double rate = rate_pct / 100.0;
  sp::FleetConfig cfg;
  cfg.client_id = "f8-client";
  cfg.seed = bytes_of("f8:" + std::to_string(rate_pct));
  cfg.tpm_key_bits = 768;
  cfg.client_key_bits = 768;
  cfg.net.latency_mean_ms = 20;
  cfg.net.fault.seed = 0xf8f8f8 + static_cast<std::uint64_t>(rate_pct);
  net::FaultProfile profile;
  profile.drop_prob = 0.6 * rate;
  profile.dup_prob = 0.2 * rate;
  profile.reorder_prob = 0.1 * rate;
  profile.delay_spike_prob = 0.1 * rate;
  profile.delay_spike_ms = 200.0;
  cfg.net.fault.to_sp = profile;
  cfg.net.fault.to_client = profile;
  cfg.client_retry.max_attempts = 16;
  cfg.client_retry.backoff_base = SimDuration::millis(50);
  sp::Fleet world(cfg);

  devices::HumanParams hp;
  hp.typo_prob = 0.0;
  hp.attention = 1.0;
  pal::HumanAgent agent(devices::HumanModel(hp, SimRng(8)), "");
  world.client().set_user_agent(&agent);
  if (!world.client().enroll().ok()) std::abort();

  Point p;
  SimDuration machine{0};
  for (int i = 0; i < kTxsPerPoint; ++i) {
    const std::string summary = "order " + std::to_string(i);
    agent.set_intended_summary(summary);
    const SimTime start = world.platform().clock().now();
    auto outcome = world.client().submit_transaction(summary, bytes_of("tx"));
    const SimDuration total = world.platform().clock().now() - start;
    if (outcome.ok() && outcome.value().accepted) {
      ++p.accepted;
      machine = machine + (total - outcome.value().timing.user);
    } else {
      ++p.failed;
    }
  }
  p.retries = world.client().retries();
  p.replays = world.sp().replayed_challenges() + world.sp().replayed_results();
  p.faults = world.link().faults() != nullptr
                 ? world.link().faults()->injected_total()
                 : 0;
  p.machine_ms_per_tx =
      p.accepted > 0 ? machine.to_millis() / p.accepted : 0.0;
  return p;
}

void write_json(const std::string& path,
                const std::vector<std::pair<double, Point>>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"experiment\": \"F8\",\n  \"txs_per_point\": %d,\n"
               "  \"rows\": [\n", kTxsPerPoint);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Point& p = rows[i].second;
    std::fprintf(
        f,
        "    {\"fault_rate_pct\": %.0f, \"accepted\": %d, \"failed\": %d, "
        "\"faults\": %llu, \"retries\": %llu, \"replays\": %llu, "
        "\"machine_ms_per_tx\": %.1f}%s\n",
        rows[i].first, p.accepted, p.failed,
        static_cast<unsigned long long>(p.faults),
        static_cast<unsigned long long>(p.retries),
        static_cast<unsigned long long>(p.replays), p.machine_ms_per_tx,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }

  std::printf("=== F8: recovery under injected faults (%d txs/point) ===\n",
              kTxsPerPoint);
  std::printf("(fault mix: 60%% drop, 20%% dup, 10%% reorder, 10%% delay"
              " spike; retry: 16 attempts, 50 ms base backoff)\n\n");
  std::printf("%10s  %9s  %7s  %8s  %8s  %8s  %14s\n", "fault rate",
              "accepted", "failed", "faults", "retries", "replays",
              "machine ms/tx");

  const double rates[] = {0, 5, 10, 15, 20, 25, 30};
  std::vector<std::pair<double, Point>> rows;
  for (const double rate : rates) {
    const Point p = run_rate(rate);
    rows.emplace_back(rate, p);
    std::printf("%9.0f%%  %6d/%d  %7d  %8llu  %8llu  %8llu  %14.1f\n", rate,
                p.accepted, kTxsPerPoint, p.failed,
                static_cast<unsigned long long>(p.faults),
                static_cast<unsigned long long>(p.retries),
                static_cast<unsigned long long>(p.replays),
                p.machine_ms_per_tx);
  }

  if (!json_path.empty()) {
    write_json(json_path, rows);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  std::printf(
      "\nShape check: the accepted column stays full across the sweep while\n"
      "retries/replays grow with the fault rate -- recovery is paid in\n"
      "latency (machine ms/tx), never in lost or double-executed\n"
      "transactions.\n");
  return 0;
}
