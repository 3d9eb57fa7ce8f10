// Experiment F13: crash-recovery cost (real time).
//
// PR 10 makes every acked SP mutation durable: a CRC-framed journal
// record is appended inside the frame path, before the reply leaves the
// building. This experiment prices that contract from both ends:
//
//   - Steady-state overhead. A batched-drain svc row (one worker,
//     max_batch 16), run identically with and without a DurableLog
//     attached to its SP. This is the number the <= 15%
//     acceptance bound is about: journaling amortized into the deployed
//     serving path. A second, signature-free raw row (trusted-path
//     verification off, bare handle_frame loop) shows the worst case:
//     nothing but hashing and session bookkeeping to hide the append
//     and amortized snapshot compaction behind.
//   - Recovery time vs journal length. Populate journals of increasing
//     record counts, then time rebuilding an SP from snapshot + journal
//     (what restart_shard pays while the cluster holds parked frames).
//     A compacted row shows what snapshotting buys; an enrolled-
//     population row isolates the per-client verify-context precompute
//     (Montgomery / window tables), which replay of settled sessions
//     does not touch.
//
// Usage: bench_crash_recovery [tx_per_row] [--json=<path>]
//   tx_per_row    transactions per svc overhead row (default 800)
//   --json=<path> additionally writes every row as one JSON document
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/messages.h"
#include "core/trusted_path_pal.h"
#include "devices/human.h"
#include "pal/session.h"
#include "sp/fleet.h"
#include "sp/service_provider.h"
#include "store/durable_log.h"
#include "store/storage_backend.h"
#include "svc/verifier_service.h"

using namespace tp;
using namespace tp::core;

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

std::vector<std::string> g_rows;

void emit(const char* row) {
  std::printf("%s\n", row);
  std::fflush(stdout);
  g_rows.emplace_back(row);
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::uint64_t challenge_tx_id(BytesView response) {
  auto opened = open_envelope(response);
  auto challenge = TxChallenge::deserialize(opened.value().second);
  if (!challenge.ok()) std::abort();
  return challenge.value().tx_id;
}

bool accepted(BytesView response) {
  auto opened = open_envelope(response);
  if (!opened.ok() || opened.value().first != MsgType::kTxResult) return false;
  auto result = TxResult::deserialize(opened.value().second);
  return result.ok() && result.value().accepted;
}

// ------------------------------------------------- steady-state overhead

/// A batched svc row (one worker, max_batch 16), optionally with a
/// DurableLog attached to its SP. Confirmations
/// are pre-minted through real PAL sessions outside the timing window
/// (client-side work); the timed blast is one producer thread per
/// client, exactly the F10 method.
double svc_batched_tps(std::size_t total_tx, bool durable) {
  sp::FleetConfig fleet_config;
  fleet_config.num_clients = 8;
  fleet_config.seed = bytes_of("crash-bench");
  fleet_config.tpm_key_bits = 768;
  fleet_config.client_key_bits = 768;
  sp::Fleet fleet(fleet_config);

  store::MemoryBackend backend;
  store::DurableLogConfig log_config;
  log_config.backend = &backend;
  store::DurableLog log(log_config);

  svc::SvcConfig svc_config;
  svc_config.queue_depth = 64;
  svc_config.max_batch = 16;
  svc_config.sp = fleet.sp_config();
  if (durable) svc_config.sp.durable = &log;
  svc::VerifierService service(std::move(svc_config));
  service.start();
  fleet.route_frames_to([&service](const std::string&, BytesView frame) {
    return service.call(frame).frame;
  });
  if (fleet.enroll_all() != fleet.size()) std::abort();

  ScriptedCodeAgent agent;
  const std::size_t per_client = total_tx / fleet.size();
  std::vector<std::vector<Bytes>> corpus(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    pal::SessionDriver driver(fleet.platform(i));
    driver.set_user_agent(&agent);
    const std::string& id = fleet.client_id(i);
    corpus[i].reserve(per_client);
    for (std::size_t j = 0; j < per_client; ++j) {
      TxSubmit submit{id, "pay " + std::to_string(j), Bytes(64, 1)};
      const auto challenge_response =
          service.call(envelope(MsgType::kTxSubmit, submit.serialize()));
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
      TxConfirm confirm{id, challenge.value().tx_id, out.value().verdict,
                        out.value().signature};
      corpus[i].push_back(envelope(MsgType::kTxConfirm, confirm.serialize()));
    }
  }

  std::vector<std::uint64_t> ok(fleet.size(), 0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    producers.emplace_back([&, i] {
      std::vector<std::future<svc::SvcResponse>> pending;
      pending.reserve(corpus[i].size());
      for (auto& frame : corpus[i]) {
        pending.push_back(service.submit(std::move(frame)));
      }
      for (auto& future : pending) {
        svc::SvcResponse response = future.get();
        if (response.status == svc::SvcStatus::kOk &&
            accepted(response.frame)) {
          ++ok[i];
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  const double elapsed = ms_since(start);
  service.drain();

  std::uint64_t total_ok = 0;
  for (const auto a : ok) total_ok += a;
  if (total_ok != per_client * fleet.size()) std::abort();
  return static_cast<double>(total_ok) / (elapsed / 1000.0);
}

/// Signature-free transactions/sec (submit + confirm per tx): the
/// worst-case overhead profile, nothing expensive to hide the append
/// behind.
double raw_path_tps(std::size_t total_tx, bool durable) {
  store::MemoryBackend backend;
  store::DurableLogConfig log_config;
  log_config.backend = &backend;
  store::DurableLog log(log_config);

  sp::SpConfig sp_config;
  sp_config.require_trusted_path = false;
  sp_config.seed = bytes_of("crash-bench-raw");
  if (durable) sp_config.durable = &log;
  sp::ServiceProvider sp(sp_config);

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t ok = 0;
  for (std::size_t i = 0; i < total_tx; ++i) {
    const std::string id = "raw-" + std::to_string(i % 16);
    TxSubmit submit{id, "pay " + std::to_string(i), Bytes(32, 2)};
    const Bytes challenge =
        sp.handle_frame(envelope(MsgType::kTxSubmit, submit.serialize()));
    TxConfirm confirm{id, challenge_tx_id(challenge), Verdict::kConfirmed,
                      Bytes{}};
    if (accepted(sp.handle_frame(
            envelope(MsgType::kTxConfirm, confirm.serialize())))) {
      ++ok;
    }
  }
  const double elapsed = ms_since(start);
  if (ok != total_tx) std::abort();
  return static_cast<double>(ok) / (elapsed / 1000.0);
}

void overhead_row(const char* path, double plain_tps, double durable_tps) {
  const double overhead_pct = (plain_tps / durable_tps - 1.0) * 100.0;
  char row[256];
  std::snprintf(row, sizeof(row),
                "{\"bench\":\"crash_recovery\",\"row\":\"overhead\","
                "\"path\":\"%s\",\"plain_tps\":%.0f,\"durable_tps\":%.0f,"
                "\"overhead_pct\":%.1f}",
                path, plain_tps, durable_tps, overhead_pct);
  emit(row);
}

// ----------------------------------------------- recovery vs journal size

/// Fills a journal with `total_tx` signature-free transactions
/// (2 delta records each: the TxSubmit and the TxConfirm), compaction
/// disabled.
void populate_raw_journal(store::StorageBackend& backend,
                          std::size_t total_tx) {
  store::DurableLogConfig log_config;
  log_config.backend = &backend;
  log_config.compact_journal_bytes = 0;  // pure-replay rows: never compact
  store::DurableLog log(log_config);
  sp::SpConfig sp_config;
  sp_config.require_trusted_path = false;
  sp_config.seed = bytes_of("crash-bench-recovery");
  sp_config.durable = &log;
  sp::ServiceProvider sp(sp_config);
  for (std::size_t i = 0; i < total_tx; ++i) {
    const std::string id = "rec-" + std::to_string(i % 16);
    TxSubmit submit{id, "pay " + std::to_string(i), Bytes(32, 3)};
    const Bytes challenge =
        sp.handle_frame(envelope(MsgType::kTxSubmit, submit.serialize()));
    TxConfirm confirm{id, challenge_tx_id(challenge), Verdict::kConfirmed,
                      Bytes{}};
    (void)sp.handle_frame(envelope(MsgType::kTxConfirm, confirm.serialize()));
  }
}

/// Times one SP rebuild from the backend's current snapshot + journal.
void recovery_row(const char* label, store::StorageBackend& backend) {
  store::DurableLogConfig log_config;
  log_config.backend = &backend;
  log_config.compact_journal_bytes = 0;
  store::DurableLog log(log_config);
  sp::SpConfig sp_config;
  sp_config.require_trusted_path = false;
  sp_config.seed = bytes_of("crash-bench-recovery");
  sp_config.durable = &log;

  const std::uint64_t journal_bytes = backend.journal_bytes();
  const auto start = std::chrono::steady_clock::now();
  sp::ServiceProvider sp(sp_config);
  const double elapsed = ms_since(start);
  const store::RecoveryStats& rs = log.recovery_stats();
  const double records_per_sec =
      elapsed > 0.0 ? rs.replayed_records / (elapsed / 1000.0) : 0.0;
  char row[320];
  std::snprintf(
      row, sizeof(row),
      "{\"bench\":\"crash_recovery\",\"row\":\"recovery\",\"label\":\"%s\","
      "\"journal_bytes\":%llu,\"snapshot_bytes\":%llu,"
      "\"replayed_records\":%llu,\"recover_ms\":%.2f,\"records_per_sec\":"
      "%.0f,\"sessions\":%zu}",
      label, static_cast<unsigned long long>(journal_bytes),
      static_cast<unsigned long long>(rs.snapshot_bytes),
      static_cast<unsigned long long>(rs.replayed_records), elapsed,
      records_per_sec, sp.export_state().tx_sessions.size());
  emit(row);
}

/// Recovery dominated by the per-client verify-context precompute: the
/// journal holds `num_clients` enrollments and nothing else.
void enrolled_recovery_row(std::size_t num_clients) {
  sp::FleetConfig fleet_config;
  fleet_config.num_clients = num_clients;
  fleet_config.seed = bytes_of("crash-bench-enroll");
  fleet_config.tpm_key_bits = 768;
  fleet_config.client_key_bits = 768;
  sp::Fleet fleet(fleet_config);

  store::MemoryBackend backend;
  store::DurableLogConfig log_config;
  log_config.backend = &backend;
  {
    store::DurableLog log(log_config);
    sp::SpConfig sp_config = fleet.sp_config();
    sp_config.durable = &log;
    sp::ServiceProvider sp(sp_config);
    fleet.route_frames_to([&sp](const std::string&, BytesView frame) {
      return sp.handle_frame(frame);
    });
    if (fleet.enroll_all() != fleet.size()) std::abort();
  }

  store::DurableLog log(log_config);
  sp::SpConfig sp_config = fleet.sp_config();
  sp_config.durable = &log;
  const auto start = std::chrono::steady_clock::now();
  sp::ServiceProvider sp(sp_config);
  const double elapsed = ms_since(start);
  if (sp.stats().enrolled != num_clients) std::abort();
  char row[256];
  std::snprintf(row, sizeof(row),
                "{\"bench\":\"crash_recovery\",\"row\":\"enrolled_recovery\","
                "\"clients\":%zu,\"recover_ms\":%.2f,\"us_per_client\":%.1f}",
                num_clients, elapsed, elapsed * 1000.0 / num_clients);
  emit(row);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t tx_per_row = 800;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      tx_per_row = static_cast<std::size_t>(std::atoll(arg.c_str()));
    }
  }

  // Steady-state overhead, the batched serving path first (this is the
  // number the <= 15% acceptance bound in EXPERIMENTS.md F13 is about),
  // then the signature-free worst case. Best-of-3 per path, interleaved:
  // on a single-core host the producer threads share the core with the
  // worker, so individual runs are noisy in both directions.
  double svc_plain = 0.0;
  double svc_durable = 0.0;
  double raw_plain = 0.0;
  double raw_durable = 0.0;
  const std::size_t raw_tx = tx_per_row * 8;
  for (int repeat = 0; repeat < 3; ++repeat) {
    svc_plain = std::max(svc_plain, svc_batched_tps(tx_per_row, false));
    svc_durable = std::max(svc_durable, svc_batched_tps(tx_per_row, true));
    raw_plain = std::max(raw_plain, raw_path_tps(raw_tx, false));
    raw_durable = std::max(raw_durable, raw_path_tps(raw_tx, true));
  }
  overhead_row("svc_batched", svc_plain, svc_durable);
  overhead_row("raw", raw_plain, raw_durable);

  // Recovery time vs journal length (pure replay, no snapshot), then
  // what compaction buys on the largest journal, then the enrolled-
  // population precompute cost.
  for (const std::size_t tx : {2000u, 8000u, 32000u}) {
    store::MemoryBackend backend;
    populate_raw_journal(backend, tx);
    char label[32];
    std::snprintf(label, sizeof(label), "journal_%zutx", tx);
    recovery_row(label, backend);
    if (tx == 32000u) {
      // Compact: snapshot the recovered state, reset the journal, and
      // time the snapshot-only rebuild.
      store::DurableLogConfig log_config;
      log_config.backend = &backend;
      log_config.compact_journal_bytes = 0;
      store::DurableLog log(log_config);
      sp::SpConfig sp_config;
      sp_config.require_trusted_path = false;
      sp_config.seed = bytes_of("crash-bench-recovery");
      sp_config.durable = &log;
      sp::ServiceProvider sp(sp_config);
      sp.checkpoint();
      recovery_row("snapshot_32000tx", backend);
    }
  }
  enrolled_recovery_row(64);

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < g_rows.size(); ++i) {
      std::fprintf(out, "  %s%s\n", g_rows[i].c_str(),
                   i + 1 < g_rows.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
