// Experiment F3b/F11: population view -- one SP (or a sharded cluster of
// them) serving many clients.
//
// Default mode (F3b) complements F3 (raw verifier throughput) with the
// deployment question: when a mixed fleet (all four TPM chips, both DRTM
// technologies) runs enrollments and confirmations against one SP
// instance, what does the population's latency distribution look like,
// and does the SP state stay consistent? Reports per-percentile confirm
// machine times across the fleet and the SP's final accounting.
//
// Cluster mode (F11, --cluster) asks the scale-out question instead: a
// cluster::VerifierCluster of K shared-nothing shards behind the
// consistent-hash router enrolls a large synthetic population (1M+
// clients in the recorded run) and serves a confirmation blast, proving
// (a) per-shard memory stays flat as the cluster grows -- each shard's
// bounded tables are sized for its share, not the population -- and
// (b) aggregate accepts/s scales with shard count as far as the host's
// cores allow (in-memory shards, pure CPU: each accept is one signature
// verify plus bookkeeping).
//
// The cluster population is synthetic but cryptographically genuine: all
// clients share one CA-certified AIK and one confirmation keypair (the
// SP binds evidence per client id, not per key), and every enrollment
// quote / confirmation signature is a real RSA signature the SP fully
// verifies. What the fast path skips is the client-side simulation
// (virtual TPM, DRTM launch, human typing) -- none of which runs on the
// SP and none of which this experiment measures.
//
// Usage:
//   bench_fleet_population [--json=<path>]                     (F3b)
//   bench_fleet_population --cluster [--clients=N] [--shards=K]
//                          [--confirms=M] [--json=<path>]      (F11)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cluster/verifier_cluster.h"
#include "core/messages.h"
#include "core/trusted_path_pal.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "pal/human_agent.h"
#include "sp/fleet.h"
#include "tpm/pcr.h"
#include "tpm/privacy_ca.h"
#include "tpm/quote.h"

using namespace tp;

namespace {

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[idx];
}

// ------------------------------------------------------------------ F3b

struct PopulationRow {
  std::size_t clients = 0;
  int tx_per_client = 0;
  std::size_t enrolled = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  double p10_ms = 0, p50_ms = 0, p90_ms = 0, p99_ms = 0;
};

PopulationRow run_population(std::size_t n_clients, int tx_per_client,
                             std::vector<tpm::QuoteFormat> backend_mix = {}) {
  sp::FleetConfig cfg;
  cfg.num_clients = n_clients;
  cfg.seed = bytes_of("f3b:" + std::to_string(n_clients));
  cfg.tpm_key_bits = 1024;
  cfg.client_key_bits = 1024;
  cfg.chip_mix = {"Infineon SLB9635", "Broadcom BCM5752",
                  "Atmel AT97SC3203", "STMicro ST19NP18"};
  cfg.technology_mix = {drtm::DrtmTechnology::kAmdSkinit,
                        drtm::DrtmTechnology::kIntelTxt};
  cfg.backend_mix = backend_mix;
  sp::Fleet fleet(cfg);

  const std::size_t enrolled = fleet.enroll_all();
  std::vector<double> confirm_ms;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    devices::HumanParams hp;  // realistic humans, typos included
    pal::HumanAgent agent(devices::HumanModel(hp, SimRng(1000 + i)), "");
    fleet.client(i).set_user_agent(&agent);
    for (int t = 0; t < tx_per_client; ++t) {
      const std::string summary =
          "pay " + std::to_string(t) + " by " + fleet.client_id(i);
      agent.set_intended_summary(summary);
      auto outcome = fleet.client(i).submit_transaction(summary, {});
      if (!outcome.ok()) continue;
      if (outcome.value().accepted) ++accepted;
      confirm_ms.push_back(outcome.value().timing.machine().to_millis());
    }
  }

  std::printf("fleet=%zu clients x %d tx  enrolled=%zu/%zu\n", n_clients,
              tx_per_client, enrolled, n_clients);
  std::printf(
      "  confirm machine ms: p10=%.0f  p50=%.0f  p90=%.0f  p99=%.0f\n",
      percentile(confirm_ms, 0.10), percentile(confirm_ms, 0.50),
      percentile(confirm_ms, 0.90), percentile(confirm_ms, 0.99));
  const auto stats = fleet.sp().stats();
  std::printf("  SP: accepted=%llu rejected=%llu\n",
              static_cast<unsigned long long>(stats.tx_accepted),
              static_cast<unsigned long long>(stats.tx_rejected));
  if (!backend_mix.empty()) {
    std::printf(
        "  by backend: enrolled tpm12=%llu tpm2=%llu  "
        "accepted tpm12=%llu tpm2=%llu\n",
        static_cast<unsigned long long>(
            stats.enrolled_format(tpm::QuoteFormat::kTpm12)),
        static_cast<unsigned long long>(
            stats.enrolled_format(tpm::QuoteFormat::kTpm2)),
        static_cast<unsigned long long>(
            stats.tx_accepted_format(tpm::QuoteFormat::kTpm12)),
        static_cast<unsigned long long>(
            stats.tx_accepted_format(tpm::QuoteFormat::kTpm2)));
  }
  PopulationRow row;
  row.clients = n_clients;
  row.tx_per_client = tx_per_client;
  row.enrolled = enrolled;
  row.accepted = stats.tx_accepted;
  row.rejected = stats.tx_rejected;
  row.p10_ms = percentile(confirm_ms, 0.10);
  row.p50_ms = percentile(confirm_ms, 0.50);
  row.p90_ms = percentile(confirm_ms, 0.90);
  row.p99_ms = percentile(confirm_ms, 0.99);
  return row;
}

int run_f3b(const std::string& json_path) {
  std::printf("=== F3b: mixed fleet against one service provider ===\n\n");
  std::vector<PopulationRow> rows;
  rows.push_back(run_population(4, 4));
  rows.push_back(run_population(16, 2));
  // Mid-migration round: half the machines quote TPM 1.2 (SHA-1 PCRs,
  // RSA AIK), half TPM 2.0 (SHA-256 PCRs, ECC AK), one SP verifies both.
  std::printf("\n--- mixed 1.2/2.0 backends ---\n");
  rows.push_back(run_population(
      16, 2, {tpm::QuoteFormat::kTpm12, tpm::QuoteFormat::kTpm2}));
  std::printf(
      "\nShape check: the population's p10..p99 spread reflects the chip\n"
      "mix (fast Infineon to slow Broadcom), enrollment succeeds for both\n"
      "DRTM technologies, and one SP instance serves the whole fleet with\n"
      "consistent accounting. In the mixed round the per-backend slices\n"
      "must sum to the totals: the SP dispatches on the enrollment's\n"
      "quote-format tag, not on anything the fleet tells it out of band.\n"
      "Occasional rejections are the realistic humans typo-ing out of all\n"
      "retries -- not protocol failures.\n");

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\"bench\":\"fleet_population\",\"rows\":[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const PopulationRow& r = rows[i];
      std::fprintf(
          out,
          "  {\"clients\":%zu,\"tx_per_client\":%d,\"enrolled\":%zu,"
          "\"accepted\":%llu,\"rejected\":%llu,\"p10_ms\":%.0f,"
          "\"p50_ms\":%.0f,\"p90_ms\":%.0f,\"p99_ms\":%.0f}%s\n",
          r.clients, r.tx_per_client, r.enrolled,
          static_cast<unsigned long long>(r.accepted),
          static_cast<unsigned long long>(r.rejected), r.p10_ms, r.p50_ms,
          r.p90_ms, r.p99_ms, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

// ------------------------------------------------------------------ F11

/// One credential set shared by the whole synthetic population. The SP
/// keys trust per client id (the certificate names the platform, and
/// nothing in the protocol requires distinct keys per client), so one
/// CA-certified AIK and one confirmation keypair serve any population
/// size -- while every quote and confirmation signature stays a genuine
/// RSA signature the SP verifies in full.
struct SyntheticCreds {
  tpm::PrivacyCa ca;
  crypto::RsaPrivateKey aik;
  Bytes aik_cert;
  crypto::RsaPrivateKey confirm_key;
  Bytes confirm_pub;
  core::AttestationPolicy policy;
};

SyntheticCreds make_creds() {
  crypto::HmacDrbg drbg(bytes_of("f11-keys"));
  const auto rand = [&](std::size_t n) { return drbg.generate(n); };
  SyntheticCreds creds{tpm::PrivacyCa(bytes_of("f11-ca"), 768),
                       crypto::rsa_generate(768, rand),
                       {},
                       crypto::rsa_generate(768, rand),
                       {},
                       core::attestation_policy(
                           drtm::DrtmTechnology::kAmdSkinit)};
  creds.aik_cert =
      creds.ca.certify("f11-platform", creds.aik.public_key()).serialize();
  creds.confirm_pub = creds.confirm_key.public_key().serialize();
  return creds;
}

std::string client_name(std::size_t i) {
  return "f11-client-" + std::to_string(i);
}

/// Enrolls clients [lo, hi) through the cluster with synthetic quotes.
void enroll_range(cluster::VerifierCluster& cluster,
                  const SyntheticCreds& creds, std::size_t lo, std::size_t hi,
                  std::atomic<std::size_t>& enrolled) {
  using namespace tp::core;
  for (std::size_t i = lo; i < hi; ++i) {
    const std::string id = client_name(i);
    EnrollBegin begin;
    begin.client_id = id;
    const auto r1 =
        cluster.call(id, envelope(MsgType::kEnrollBegin, begin.serialize()));
    if (r1.status != svc::SvcStatus::kOk) continue;
    auto opened = open_envelope(r1.frame);
    auto challenge = EnrollChallenge::deserialize(opened.value().second);
    if (!challenge.ok()) continue;

    // A genuine TPM 1.2 quote over the golden PCR state, bound to this
    // enrollment's confirmation key + nonce -- exactly what the virtual
    // TPM would emit, minus the device simulation.
    const Bytes binding = core::enrollment_quote_binding(
        creds.confirm_pub, challenge.value().nonce);
    tpm::QuoteResult quote;
    quote.selection = creds.policy.selection;
    quote.pcr_values = creds.policy.values;
    quote.external_data = binding;
    const auto composite =
        tpm::PcrBank::composite_of(quote.selection, quote.pcr_values);
    quote.signature =
        crypto::rsa_sign(creds.aik, crypto::HashAlg::kSha1,
                         tpm::quote_info(composite.value(), binding));

    EnrollComplete done;
    done.client_id = id;
    done.confirmation_pubkey = creds.confirm_pub;
    done.quote = quote.serialize();
    done.aik_certificate = creds.aik_cert;
    const auto r2 =
        cluster.call(id, envelope(MsgType::kEnrollComplete, done.serialize()));
    if (r2.status != svc::SvcStatus::kOk) continue;
    auto result_frame = open_envelope(r2.frame);
    auto result = EnrollResult::deserialize(result_frame.value().second);
    if (result.ok() && result.value().accepted) {
      enrolled.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

struct ShardSample {
  std::uint32_t id = 0;
  std::size_t enrolled = 0;
  std::size_t memory_bytes = 0;
};

struct ClusterRow {
  std::size_t shards = 0;
  std::size_t clients = 0;
  std::size_t enrolled = 0;
  std::size_t confirms = 0;
  std::uint64_t accepted = 0;
  double enroll_s = 0;
  double elapsed_ms = 0;
  double accepts_per_sec = 0;
  std::vector<ShardSample> per_shard;
};

ClusterRow run_cluster(const SyntheticCreds& creds, std::size_t shards,
                       std::size_t clients, std::size_t confirms) {
  using namespace tp::core;
  sp::SpConfig sp_cfg;
  sp_cfg.golden_pcr17 = core::golden_pcr17();
  sp_cfg.ca_public = creds.ca.public_key();
  sp_cfg.seed = bytes_of("f11-sp");
  sp_cfg.accepted_policies = {creds.policy};
  // Size the per-shard tables for the shard's SHARE of the load, not the
  // population: that is the flat-memory claim under test. Enroll sessions
  // are transient (begin->complete back to back), tx sessions must hold
  // the shard's slice of the in-flight confirm corpus.
  sp_cfg.enroll_session_capacity = 4096;
  sp_cfg.tx_session_capacity = confirms + 64;
  sp_cfg.session_ttl = SimDuration::seconds(3600);  // minting takes minutes
  sp_cfg.expected_clients = clients / shards + clients / (2 * shards) + 64;

  cluster::ClusterConfig cc;
  cc.num_shards = shards;
  cc.svc.queue_depth = 1024;
  cc.svc.max_batch = 16;
  cc.svc.sp = sp_cfg;
  cluster::VerifierCluster cluster(cc);
  cluster.start();

  // Phase 1: enroll the population (untimed for throughput, but reported;
  // enrollment cost is client-key verification).
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t n_threads =
      std::min<std::size_t>(std::max(1u, hw), 8);
  std::atomic<std::size_t> enrolled{0};
  const auto enroll_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    const std::size_t chunk = (clients + n_threads - 1) / n_threads;
    for (std::size_t t = 0; t < n_threads; ++t) {
      const std::size_t lo = t * chunk;
      const std::size_t hi = std::min(clients, lo + chunk);
      if (lo >= hi) break;
      workers.emplace_back([&, lo, hi] {
        enroll_range(cluster, creds, lo, hi, enrolled);
      });
    }
    for (auto& w : workers) w.join();
  }
  const double enroll_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    enroll_start)
          .count();
  std::printf("  [%zu shard(s)] enrolled %zu/%zu clients in %.1fs "
              "(%.0f enroll/s)\n",
              shards, enrolled.load(), clients, enroll_s,
              enrolled.load() / enroll_s);

  // Phase 2: pre-mint the confirmation corpus (client-side signing work,
  // outside the timing window). Client i confirms one payment; the first
  // `confirms` clients land on shards in ring proportion.
  struct PendingConfirm {
    std::string id;
    Bytes frame;
  };
  std::vector<PendingConfirm> corpus(confirms);
  {
    std::vector<std::thread> workers;
    const std::size_t chunk = (confirms + n_threads - 1) / n_threads;
    for (std::size_t t = 0; t < n_threads; ++t) {
      const std::size_t lo = t * chunk;
      const std::size_t hi = std::min(confirms, lo + chunk);
      if (lo >= hi) break;
      workers.emplace_back([&, lo, hi] {
        for (std::size_t i = lo; i < hi; ++i) {
          const std::string id = client_name(i);
          TxSubmit submit;
          submit.client_id = id;
          submit.summary = "pay " + std::to_string(i);
          submit.payload = Bytes(64, 1);
          const auto r = cluster.call(
              id, envelope(MsgType::kTxSubmit, submit.serialize()));
          if (r.status != svc::SvcStatus::kOk) std::abort();
          auto challenge =
              TxChallenge::deserialize(open_envelope(r.frame).value().second);
          if (!challenge.ok()) std::abort();
          TxConfirm confirm;
          confirm.client_id = id;
          confirm.tx_id = challenge.value().tx_id;
          confirm.verdict = Verdict::kConfirmed;
          confirm.signature = crypto::rsa_sign(
              creds.confirm_key, crypto::HashAlg::kSha256,
              confirmation_statement(submit.digest(),
                                     challenge.value().nonce,
                                     Verdict::kConfirmed));
          corpus[i] = PendingConfirm{
              id, envelope(MsgType::kTxConfirm, confirm.serialize())};
        }
      });
    }
    for (auto& w : workers) w.join();
  }

  // Phase 3: timed confirmation blast.
  std::atomic<std::uint64_t> accepted{0};
  const auto blast_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> producers;
    const std::size_t chunk = (confirms + n_threads - 1) / n_threads;
    for (std::size_t t = 0; t < n_threads; ++t) {
      const std::size_t lo = t * chunk;
      const std::size_t hi = std::min(confirms, lo + chunk);
      if (lo >= hi) break;
      producers.emplace_back([&, lo, hi] {
        std::vector<std::future<svc::SvcResponse>> pending;
        pending.reserve(hi - lo);
        for (std::size_t i = lo; i < hi; ++i) {
          pending.push_back(
              cluster.submit(corpus[i].id, std::move(corpus[i].frame)));
        }
        std::uint64_t ok = 0;
        for (auto& future : pending) {
          svc::SvcResponse response = future.get();
          if (response.status != svc::SvcStatus::kOk) continue;
          auto opened = open_envelope(response.frame);
          if (!opened.ok()) continue;
          auto result = TxResult::deserialize(opened.value().second);
          if (result.ok() && result.value().accepted) ++ok;
        }
        accepted.fetch_add(ok, std::memory_order_relaxed);
      });
    }
    for (auto& p : producers) p.join();
  }
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - blast_start)
          .count();

  ClusterRow row;
  row.shards = shards;
  row.clients = clients;
  row.enrolled = enrolled.load();
  row.confirms = confirms;
  row.accepted = accepted.load();
  row.enroll_s = enroll_s;
  row.elapsed_ms = elapsed_ms;
  row.accepts_per_sec = accepted.load() / (elapsed_ms / 1000.0);

  // Per-shard occupancy + footprint, read quiesced.
  cluster.drain();
  cluster.publish_gauges();
  for (const std::uint32_t sid : cluster.shard_ids()) {
    ShardSample sample;
    sample.id = sid;
    sample.enrolled = cluster.shard_sp(sid).enrolled_count();
    sample.memory_bytes = cluster.shard_sp(sid).memory_bytes();
    row.per_shard.push_back(sample);
  }

  std::printf("  [%zu shard(s)] %llu/%zu confirms accepted in %.0fms "
              "(%.0f accepts/s)\n",
              shards, static_cast<unsigned long long>(row.accepted),
              confirms, elapsed_ms, row.accepts_per_sec);
  for (const ShardSample& s : row.per_shard) {
    std::printf("    shard %u: enrolled=%zu memory=%.1fMB\n", s.id,
                s.enrolled, s.memory_bytes / 1e6);
  }
  if (row.accepted != confirms) {
    std::fprintf(stderr, "FATAL: %zu confirms sent but %llu accepted\n",
                 confirms, static_cast<unsigned long long>(row.accepted));
    std::abort();
  }
  return row;
}

int run_f11(std::size_t clients, std::size_t shards, std::size_t confirms,
            const std::string& json_path) {
  if (shards < 2 || clients < shards) {
    std::fprintf(stderr, "--cluster needs --shards>=2, --clients>=shards\n");
    return 2;
  }
  // The 1-shard baseline serves clients/shards clients, and both rows
  // confirm through the same client indices -- so the corpus can only be
  // as large as the baseline's population.
  confirms = std::min(confirms, clients / shards);
  std::printf("=== F11: verifier cluster scale-out "
              "(%zu clients, %zu shards, %zu confirms) ===\n\n",
              clients, shards, confirms);
  const SyntheticCreds creds = make_creds();

  // Baseline: one shard serving its proportional population slice. The
  // flat-memory claim compares the K-shard per-shard footprint to this.
  ClusterRow base = run_cluster(creds, 1, clients / shards, confirms);
  ClusterRow full = run_cluster(creds, shards, clients, confirms);

  std::size_t min_mem = SIZE_MAX, max_mem = 0;
  for (const ShardSample& s : full.per_shard) {
    min_mem = std::min(min_mem, s.memory_bytes);
    max_mem = std::max(max_mem, s.memory_bytes);
  }
  const double mem_ratio =
      static_cast<double>(max_mem) /
      static_cast<double>(base.per_shard.front().memory_bytes);
  const double speedup = full.accepts_per_sec / base.accepts_per_sec;
  std::printf("\nsummary: aggregate speedup %.2fx (%zu shards vs 1), "
              "per-shard memory %.2fx the single-shard baseline "
              "(max %.1fMB, min %.1fMB)\n",
              speedup, shards, mem_ratio, max_mem / 1e6, min_mem / 1e6);

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\"bench\":\"fleet_population_cluster\","
                      "\"clients\":%zu,\"shards\":%zu,\"confirms\":%zu,"
                      "\"rows\":[\n",
                 clients, shards, confirms);
    const ClusterRow* rows[] = {&base, &full};
    for (std::size_t i = 0; i < 2; ++i) {
      const ClusterRow& r = *rows[i];
      std::fprintf(out,
                   "  {\"shards\":%zu,\"clients\":%zu,\"enrolled\":%zu,"
                   "\"confirms\":%zu,\"accepted\":%llu,\"enroll_s\":%.1f,"
                   "\"elapsed_ms\":%.1f,\"accepts_per_sec\":%.0f,"
                   "\"per_shard\":[",
                   r.shards, r.clients, r.enrolled, r.confirms,
                   static_cast<unsigned long long>(r.accepted), r.enroll_s,
                   r.elapsed_ms, r.accepts_per_sec);
      for (std::size_t j = 0; j < r.per_shard.size(); ++j) {
        const ShardSample& s = r.per_shard[j];
        std::fprintf(out,
                     "{\"shard\":%u,\"enrolled\":%zu,\"memory_bytes\":%zu}%s",
                     s.id, s.enrolled, s.memory_bytes,
                     j + 1 < r.per_shard.size() ? "," : "");
      }
      std::fprintf(out, "]}%s\n", i == 0 ? "," : "");
    }
    std::fprintf(out,
                 "],\"summary\":{\"aggregate_speedup\":%.2f,"
                 "\"per_shard_memory_ratio\":%.3f}}\n",
                 speedup, mem_ratio);
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool cluster_mode = false;
  std::size_t clients = 100000, shards = 4, confirms = 8192;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--cluster") {
      cluster_mode = true;
    } else if (arg.rfind("--clients=", 0) == 0) {
      clients = std::strtoull(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--shards=", 0) == 0) {
      shards = std::strtoull(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--confirms=", 0) == 0) {
      confirms = std::strtoull(arg.c_str() + 11, nullptr, 10);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--cluster] [--clients=N] [--shards=K] "
                   "[--confirms=M] [--json=<path>]\n",
                   argv[0]);
      return 2;
    }
  }
  if (cluster_mode) {
    return run_f11(clients, shards, confirms, json_path);
  }
  return run_f3b(json_path);
}
