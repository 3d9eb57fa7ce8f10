// Record once, replay many: the benchmark's client-side corpus.
//
// Minting a confirmation is client work -- a late-launch PAL session that
// unseals the confirmation key and signs -- and costs far more than the
// verifier's accept path. So each run mints its corpus once, during set-up,
// against a recording cluster, and every timed pass replays the recorded
// frames into a fresh cluster built from the same configuration.
//
// A replay gets the recording's replies byte for byte. The SP's challenges
// depend only on its seed and on the order of nonce-drawing frames
// (EnrollBegin, TxSubmit) each shard sees, and a fresh durable SP reseeds
// from an empty journal exactly like the recording's did. A pass therefore
// sends nonce-drawing frames from one thread in recording order (shard
// queues are FIFO), and only order-free frames (EnrollComplete, TxConfirm)
// concurrently. Every reply is compared with its recording.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "cluster/verifier_cluster.h"
#include "core/messages.h"
#include "sp/service_provider.h"
#include "store/journal.h"
#include "tpm/attestation.h"
#include "util/bytes.h"

namespace perfbench {

/// What one workload's population and traffic look like.
struct WorkloadSpec {
  std::string name;
  std::size_t clients = 0;
  /// Quote formats assigned round-robin to the clients.
  std::vector<tp::tpm::QuoteFormat> formats;
  /// Transactions per client in the open-loop phase.
  std::size_t open_per_client = 0;
  /// Transactions per client in the closed-loop confirm blast.
  std::size_t blast_per_client = 0;
  /// Journal every shard to a FileBackend (one fdatasync per record).
  bool durable = false;
};

/// RSA modulus of TPM 1.2 confirmation keys (TPM 2.0 keys are P-256).
inline constexpr std::uint32_t kConfirmKeyBits = 2048;
/// RSA modulus of the Privacy CA and the TPM 1.2 AIKs.
inline constexpr std::size_t kTpmKeyBits = 1024;

/// One recorded request and the reply the recording cluster gave it.
struct Exchange {
  std::uint32_t client = 0;  // index into Corpus::clients
  tp::core::MsgType type = tp::core::MsgType::kEnrollBegin;
  tp::Bytes request;
  tp::Bytes reply;
};

struct ClientInfo {
  std::string id;
  tp::tpm::QuoteFormat format = tp::tpm::QuoteFormat::kTpm12;
};

struct Corpus {
  WorkloadSpec spec;
  std::vector<ClientInfo> clients;
  /// The SP template every cluster of this run is built from.
  tp::sp::SpConfig sp_config;

  std::vector<Exchange> enroll_begin;     // one per client, recording order
  std::vector<Exchange> enroll_complete;  // aligned with enroll_begin
  std::vector<Exchange> open_submit;      // open-loop transactions
  std::vector<Exchange> open_confirm;     // aligned with open_submit
  std::vector<Exchange> blast_submit;     // closed-loop transactions
  std::vector<Exchange> blast_confirm;    // aligned with blast_submit

  /// Durable workloads: the journal records each recording shard wrote,
  /// in order (the store layer's isolated append input).
  std::vector<std::vector<tp::store::JournalRecord>> journal_records;

  /// Real time of each confirmation's SessionDriver::run, by format
  /// index (tpm::quote_format_index), and each session's virtual time.
  std::array<std::vector<double>, tp::tpm::kNumQuoteFormats> mint_us;
  std::vector<double> confirm_virtual_ms;

  std::size_t frames_per_pass() const {
    return 2 * enroll_begin.size() + 2 * open_submit.size() +
           2 * blast_submit.size();
  }
};

/// Builds the cluster configuration every cluster of a run shares: two
/// shards of the corpus's SP template; durable workloads journal shard k
/// to `journal_dir`/shard<k> (created on demand).
tp::cluster::ClusterConfig cluster_config(
    const Corpus& corpus, const std::filesystem::path& journal_dir);

/// Builds the fleet, enrolls it and mints every transaction through a
/// recording cluster journaling under `journal_dir` (durable workloads).
/// The fleet's keys are fixed per workload; `seed` drives the SP's nonce
/// seed, the transactions and their order, and the simulated humans.
/// Throws std::runtime_error if any recorded operation fails: the
/// workloads are chosen so that none does.
Corpus record_corpus(const WorkloadSpec& spec, std::uint64_t seed,
                     const std::filesystem::path& journal_dir);

}  // namespace perfbench
