// Experiment F3c: concurrent verifier-service throughput (real time).
//
// F3 established the single-core claim: one confirmation costs the SP one
// RSA verify plus bookkeeping. This experiment measures the serving
// runtime built on top of it (src/svc): N ServiceProvider shards behind
// bounded queues, fed by concurrent producers. The claim under test is
// that verification is embarrassingly parallel per client -- sharding by
// client id should scale requests/sec near-linearly in worker count,
// because shards share no protocol state.
//
// Method: for each (workers, queue_depth, max_batch) configuration,
// build a real 8-client fleet, enroll it THROUGH the service, pre-mint
// genuine signed confirmations via real PAL sessions (outside the timing
// window), then blast the confirmation frames from one producer thread
// per client and time until every response arrives. One JSON line per
// configuration, then a summary line.
//
// Every row is pure CPU (in-memory shards, no storage), so worker
// scaling tracks the cores the host actually has. The durable path's
// batching win, journal group commit, is measured end to end on a
// FileBackend by perfbench (confirm_durable).
//
// Usage: bench_svc_throughput [requests_per_config] [--json=<path>]
//   requests_per_config  defaults to 2400
//   --json=<path>        additionally writes every row plus the summary
//                        as one JSON document (BENCH_cluster.json style)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/messages.h"
#include "core/trusted_path_pal.h"
#include "devices/human.h"
#include "pal/session.h"
#include "sp/fleet.h"
#include "svc/verifier_service.h"
#include "svc_rows.h"

using namespace tp;
using namespace tp::core;
using tp::bench::ConfigResult;
using tp::bench::rps_of;

namespace {

/// Types whatever code the PAL displays (a perfectly obedient user).
class ScriptedCodeAgent : public pal::UserAgent {
 public:
  std::optional<SimDuration> on_prompt(const devices::DisplayContent& screen,
                                       devices::Keyboard& kb) override {
    kb.press_line(devices::KeySource::kPhysical,
                  screen.find_field(devices::kFieldCode));
    return SimDuration::seconds(3);
  }
};

/// Mints one genuine pending-at-service confirmation for fleet member `i`.
Bytes mint_confirm_frame(sp::Fleet& fleet, svc::VerifierService& service,
                         pal::SessionDriver& driver, std::size_t i,
                         std::uint64_t seq) {
  const std::string& id = fleet.client_id(i);
  TxSubmit submit{id, "pay " + std::to_string(seq), Bytes(64, 1)};
  const auto challenge_response =
      service.call(id, envelope(MsgType::kTxSubmit, submit.serialize()));
  if (challenge_response.status != svc::SvcStatus::kOk) std::abort();
  auto opened = open_envelope(challenge_response.frame);
  auto challenge = TxChallenge::deserialize(opened.value().second);
  if (!challenge.ok()) std::abort();

  PalConfirmInput in;
  in.tx_summary = submit.summary;
  in.tx_digest = submit.digest();
  in.nonce = challenge.value().nonce;
  in.sealed_key = fleet.client(i).sealed_key_blob();
  auto session = driver.run(make_trusted_path_pal(), in.marshal());
  auto out = PalConfirmOutput::unmarshal(session.value().output);

  TxConfirm confirm;
  confirm.client_id = id;
  confirm.tx_id = challenge.value().tx_id;
  confirm.verdict = out.value().verdict;
  confirm.signature = out.value().signature;
  return envelope(MsgType::kTxConfirm, confirm.serialize());
}

ConfigResult run_config(std::size_t workers, std::size_t queue_depth,
                        std::size_t max_batch, std::size_t total_requests) {
  sp::FleetConfig fleet_config;
  fleet_config.num_clients = 8;
  fleet_config.seed = bytes_of("svc-bench");
  sp::Fleet fleet(fleet_config);

  svc::SvcConfig svc_config;
  svc_config.num_workers = workers;
  svc_config.queue_depth = queue_depth;
  svc_config.max_batch = max_batch;
  svc_config.sp = fleet.sp_config();
  svc::VerifierService service(std::move(svc_config));
  service.start();
  fleet.route_frames_to([&service](const std::string& id, BytesView frame) {
    return service.call(id, frame).frame;
  });
  if (fleet.enroll_all() != fleet.size()) std::abort();

  // Pre-mint the confirmation corpus through real PAL sessions; this is
  // client-side work and stays outside the timing window.
  ScriptedCodeAgent agent;
  const std::size_t per_client = total_requests / fleet.size();
  std::vector<std::vector<Bytes>> corpus(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    pal::SessionDriver driver(fleet.platform(i));
    driver.set_user_agent(&agent);
    corpus[i].reserve(per_client);
    for (std::size_t j = 0; j < per_client; ++j) {
      corpus[i].push_back(mint_confirm_frame(fleet, service, driver, i, j));
    }
  }

  // Timed: one producer per client blasts its confirmations and waits for
  // every response. Accepted responses are counted from the frames.
  std::vector<std::uint64_t> accepted(fleet.size(), 0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    producers.emplace_back([&, i] {
      std::vector<std::future<svc::SvcResponse>> pending;
      pending.reserve(corpus[i].size());
      const std::string& id = fleet.client_id(i);
      for (auto& frame : corpus[i]) {
        pending.push_back(service.submit(id, std::move(frame)));
      }
      for (auto& future : pending) {
        svc::SvcResponse response = future.get();
        if (response.status != svc::SvcStatus::kOk) continue;
        auto opened = open_envelope(response.frame);
        if (!opened.ok()) continue;
        auto result = TxResult::deserialize(opened.value().second);
        if (result.ok() && result.value().accepted) ++accepted[i];
      }
    });
  }
  for (auto& t : producers) t.join();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  std::uint64_t total_accepted = 0;
  for (const auto a : accepted) total_accepted += a;
  const std::size_t sent = per_client * fleet.size();
  const double rps = sent / (elapsed_ms / 1000.0);

  obs::HistogramSnapshot latency;
  for (const auto& sample : service.metrics().histograms()) {
    if (sample.name == "svc.request_ns") latency = sample.snapshot;
  }
  const std::uint64_t backpressure =
      service.metrics().counter("svc.backpressure_waits").value();
  service.drain();

  obs::HistogramSnapshot drained;
  for (const auto& sample : service.metrics().histograms()) {
    if (sample.name == "svc.batch_size") drained = sample.snapshot;
  }
  char row[512];
  std::snprintf(
      row, sizeof(row),
      "{\"bench\":\"svc_throughput\",\"workers\":%zu,\"queue_depth\":%zu,"
      "\"max_batch\":%zu,"
      "\"mean_drain\":%.1f,\"clients\":%zu,\"requests\":%zu,"
      "\"accepted\":%llu,\"elapsed_ms\":%.1f,\"rps\":%.0f,\"p50_us\":%.1f,"
      "\"p95_us\":%.1f,\"p99_us\":%.1f,\"backpressure_waits\":%llu}",
      workers, queue_depth, max_batch, drained.mean(),
      fleet.size(), sent, static_cast<unsigned long long>(total_accepted),
      elapsed_ms, rps, latency.p50() / 1e3, latency.p95() / 1e3,
      latency.p99() / 1e3, static_cast<unsigned long long>(backpressure));
  std::printf("%s\n", row);
  std::fflush(stdout);
  if (total_accepted != sent) {
    std::fprintf(stderr, "FATAL: %zu sent but %llu accepted\n", sent,
                 static_cast<unsigned long long>(total_accepted));
    std::abort();
  }
  return ConfigResult{workers, queue_depth, max_batch, rps, row};
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t requests = 2400;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      requests = static_cast<std::size_t>(std::atoll(arg.c_str()));
    }
  }

  std::vector<ConfigResult> results;
  // Worker scaling, one frame per wakeup: shards share no protocol
  // state, so this tracks the host's cores.
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    results.push_back(run_config(workers, /*queue_depth=*/256,
                                 /*max_batch=*/1, requests));
  }
  // Queue-depth sweep at 4 workers: depth trades memory for backpressure
  // stalls; throughput should be depth-insensitive once depth >> burst.
  for (const std::size_t depth : {16u, 2048u}) {
    results.push_back(
        run_config(/*workers=*/4, depth, /*max_batch=*/1, requests));
  }
  // F10 batched-drain sweep at 4 workers (max_batch=1 is the worker
  // sweep's row): one wakeup drains up to max_batch frames, amortizing
  // the queue hand-off.
  for (const std::size_t mb : {4u, 16u, 64u}) {
    results.push_back(
        run_config(/*workers=*/4, /*queue_depth=*/256, mb, requests));
  }

  char summary[160];
  std::snprintf(summary, sizeof(summary),
                "{\"bench\":\"svc_throughput_summary\","
                "\"speedup_1w_to_4w\":%.2f}",
                rps_of(results, 4, 256, 1) / rps_of(results, 1, 256, 1));
  std::printf("%s\n", summary);

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\"bench\":\"svc_throughput\",\"requests\":%zu,"
                      "\"rows\":[\n",
                 requests);
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::fprintf(out, "  %s%s\n", results[i].json.c_str(),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "],\"summary\":%s}\n", summary);
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
