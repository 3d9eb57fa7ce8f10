#include "corpus.h"

#include <chrono>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "core/trusted_path_pal.h"
#include "devices/human.h"
#include "pal/human_agent.h"
#include "pal/session.h"
#include "sp/fleet.h"
#include "store/file_backend.h"
#include "util/rng.h"

namespace perfbench {

using namespace tp;
namespace fs = std::filesystem;

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("recording pass: " + what);
}

template <typename Msg>
Msg parse_reply(const Exchange& ex, core::MsgType want, const char* what) {
  auto opened = core::open_envelope(ex.reply);
  if (!opened.ok() || opened.value().first != want) {
    fail(std::string(what) + ": unexpected reply frame");
  }
  auto msg = Msg::deserialize(opened.value().second);
  if (!msg.ok()) fail(std::string(what) + ": malformed reply");
  return msg.take();
}

/// Fisher-Yates over client indices, driven by the run's seed.
std::vector<std::uint32_t> shuffled_clients(std::size_t n, SimRng& rng) {
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

}  // namespace

cluster::ClusterConfig cluster_config(const Corpus& corpus,
                                      const fs::path& journal_dir) {
  cluster::ClusterConfig cc;
  cc.num_shards = 2;
  cc.svc.sp = corpus.sp_config;
  if (corpus.spec.durable) {
    cc.durable_backend_factory =
        [journal_dir](std::uint32_t id) -> std::unique_ptr<store::StorageBackend> {
      const fs::path dir = journal_dir / ("shard" + std::to_string(id));
      fs::create_directories(dir);
      return std::make_unique<store::FileBackend>(dir.string());
    };
  }
  return cc;
}

Corpus record_corpus(const WorkloadSpec& spec, std::uint64_t seed,
                     const fs::path& journal_dir) {
  Corpus corpus;
  corpus.spec = spec;

  // The population (platforms and their keys) is a fixed fixture of the
  // workload, so set-up does the same key generation on every run; the
  // run's seed drives the SP's nonces and the transaction stream.
  sp::FleetConfig fleet_config;
  fleet_config.num_clients = spec.clients;
  fleet_config.seed = bytes_of("perfbench:" + spec.name);
  fleet_config.tpm_key_bits = kTpmKeyBits;
  fleet_config.client_key_bits = kConfirmKeyBits;
  fleet_config.backend_mix = spec.formats;
  sp::Fleet fleet(fleet_config);
  corpus.sp_config = fleet.sp_config();
  corpus.sp_config.seed = bytes_of("perfbench:sp:" + std::to_string(seed));

  std::unordered_map<std::string, std::uint32_t> index_of;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    corpus.clients.push_back(ClientInfo{fleet.client_id(i), fleet.backend(i)});
    index_of.emplace(fleet.client_id(i), static_cast<std::uint32_t>(i));
  }

  cluster::VerifierCluster recorder(cluster_config(corpus, journal_dir));
  recorder.start();
  bool transport_ok = true;
  const auto call = [&](std::uint32_t client, core::MsgType type,
                        Bytes frame) {
    svc::SvcResponse response =
        recorder.call(corpus.clients[client].id, frame);
    if (response.status != svc::SvcStatus::kOk) transport_ok = false;
    return Exchange{client, type, std::move(frame), std::move(response.frame)};
  };

  // Enrollment runs through the real client (its ENROLL PAL session
  // generates and seals the confirmation key); the fleet's links deliver
  // its frames to the recorder.
  fleet.route_frames_to([&](const std::string& id, BytesView frame) {
    auto opened = core::open_envelope(frame);
    const core::MsgType type =
        opened.ok() ? opened.value().first : core::MsgType::kEnrollBegin;
    Exchange ex = call(index_of.at(id), type, Bytes(frame.begin(), frame.end()));
    Bytes reply = ex.reply;
    (type == core::MsgType::kEnrollComplete ? corpus.enroll_complete
                                            : corpus.enroll_begin)
        .push_back(std::move(ex));
    return reply;
  });
  if (fleet.enroll_all() != spec.clients || !transport_ok ||
      corpus.enroll_begin.size() != spec.clients ||
      corpus.enroll_complete.size() != spec.clients) {
    fail("enrollment did not complete for every client");
  }
  for (std::size_t i = 0; i < spec.clients; ++i) {
    if (corpus.enroll_begin[i].type != core::MsgType::kEnrollBegin ||
        corpus.enroll_begin[i].client != corpus.enroll_complete[i].client ||
        !parse_reply<core::EnrollResult>(corpus.enroll_complete[i],
                                         core::MsgType::kEnrollResult,
                                         "enroll")
             .accepted) {
      fail("enrollment of " + corpus.clients[i].id + " was not accepted");
    }
  }

  // Confirmations: TxSubmit, the CONFIRM PAL session (timed on its own),
  // TxConfirm. A typo-free, attentive human confirms every transaction.
  devices::HumanParams human;
  human.typo_prob = 0.0;
  human.attention = 1.0;
  std::vector<std::unique_ptr<pal::HumanAgent>> agents;
  for (std::size_t i = 0; i < spec.clients; ++i) {
    agents.push_back(std::make_unique<pal::HumanAgent>(
        devices::HumanModel(human, SimRng(seed * 1000003u + i)), ""));
  }
  const pal::PalDescriptor confirm_pal = core::make_trusted_path_pal();
  SimRng rng(seed ^ 0x70657266626e6368ull);
  std::uint64_t tx_serial = 0;

  const auto mint = [&](std::uint32_t client, std::vector<Exchange>& submits,
                        std::vector<Exchange>& confirms) {
    const std::string& id = corpus.clients[client].id;
    const std::uint64_t cents = 100 + rng.next_below(500000);
    const std::uint64_t merchant = rng.next_below(10000);
    core::TxSubmit submit;
    submit.client_id = id;
    submit.summary = "pay " + std::to_string(cents / 100) + "." +
                     std::to_string(cents % 100) + " EUR to merchant-" +
                     std::to_string(merchant) + " (order " +
                     std::to_string(++tx_serial) + ")";
    submit.payload = bytes_of("order=" + std::to_string(tx_serial) +
                              ";cents=" + std::to_string(cents) +
                              ";merchant=" + std::to_string(merchant));
    Exchange sent = call(client, core::MsgType::kTxSubmit,
                         core::envelope(core::MsgType::kTxSubmit,
                                        submit.serialize()));
    const auto challenge = parse_reply<core::TxChallenge>(
        sent, core::MsgType::kTxChallenge, "submit");

    core::PalConfirmInput input;
    input.tx_summary = submit.summary;
    input.tx_digest = submit.digest();
    input.nonce = challenge.nonce;
    input.sealed_key = fleet.client(client).sealed_key_blob();
    agents[client]->set_intended_summary(submit.summary);
    pal::SessionDriver driver(fleet.platform(client));
    driver.set_user_agent(agents[client].get());
    const auto start = std::chrono::steady_clock::now();
    auto session = driver.run(confirm_pal, input.marshal());
    const double mint_us = std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (!session.ok() || !session.value().status.ok()) {
      fail("confirmation session failed for " + id);
    }
    auto output = core::PalConfirmOutput::unmarshal(session.value().output);
    if (!output.ok() || output.value().verdict != core::Verdict::kConfirmed) {
      fail("confirmation session did not confirm for " + id);
    }
    corpus.mint_us[tpm::quote_format_index(corpus.clients[client].format)]
        .push_back(mint_us);
    corpus.confirm_virtual_ms.push_back(
        session.value().timing.total.to_millis());

    core::TxConfirm confirm;
    confirm.client_id = id;
    confirm.tx_id = challenge.tx_id;
    confirm.verdict = output.value().verdict;
    confirm.signature = output.value().signature;
    Exchange settled = call(client, core::MsgType::kTxConfirm,
                            core::envelope(core::MsgType::kTxConfirm,
                                           confirm.serialize()));
    if (!parse_reply<core::TxResult>(settled, core::MsgType::kTxResult,
                                     "confirm")
             .accepted) {
      fail("confirmation of " + submit.summary + " was not accepted");
    }
    submits.push_back(std::move(sent));
    confirms.push_back(std::move(settled));
  };

  for (std::size_t round = 0; round < spec.open_per_client; ++round) {
    for (const std::uint32_t c : shuffled_clients(spec.clients, rng)) {
      mint(c, corpus.open_submit, corpus.open_confirm);
    }
  }
  for (std::size_t round = 0; round < spec.blast_per_client; ++round) {
    for (const std::uint32_t c : shuffled_clients(spec.clients, rng)) {
      mint(c, corpus.blast_submit, corpus.blast_confirm);
    }
  }
  if (!transport_ok) fail("a recorded frame was not served");

  recorder.drain();
  if (spec.durable) {
    for (const std::uint32_t id : recorder.shard_ids()) {
      corpus.journal_records.push_back(
          store::decode_journal(recorder.shard_backend(id).read_journal())
              .records);
    }
  }
  return corpus;
}

}  // namespace perfbench
