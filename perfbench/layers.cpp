#include "layers.h"

#include <cstdio>
#include <memory>

#include "stats.h"
#include "store/durable_log.h"
#include "store/file_backend.h"

namespace perfbench {

using namespace tp;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

Trace::Trace(std::size_t capacity)
    : origin_(Clock::now()), capacity_(capacity) {
  spans_.reserve(capacity_);
}

std::int64_t Trace::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

std::uint32_t Trace::add(const char* name, Clock::time_point start,
                         Clock::time_point end, std::uint32_t parent,
                         std::uint64_t request) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  spans_.push_back(Span{name, ns(start), ns(end), parent, request});
  return static_cast<std::uint32_t>(spans_.size());
}

bool Trace::write(const fs::path& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%u,\"request\":%llu}\n",
                 i + 1, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(out) == 0;
}

namespace {

double us_since(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

constexpr std::size_t kFormats = tpm::kNumQuoteFormats;
constexpr std::array<tpm::QuoteFormat, kFormats> kAllFormats = {
    tpm::QuoteFormat::kTpm12, tpm::QuoteFormat::kTpm2};

/// The statement a recorded confirmation signs, rebuilt from its
/// TxSubmit, the SP's challenge and the TxConfirm itself.
struct RecordedConfirm {
  std::uint32_t client = 0;
  Bytes statement;
  Bytes signature;
  const Exchange* confirm = nullptr;
};

std::vector<RecordedConfirm> recorded_confirms(const Corpus& corpus) {
  std::vector<RecordedConfirm> out;
  const auto add = [&](const std::vector<Exchange>& submits,
                       const std::vector<Exchange>& confirms) {
    for (std::size_t i = 0; i < submits.size(); ++i) {
      auto submit = core::TxSubmit::deserialize(
          core::open_envelope(submits[i].request).value().second);
      auto challenge = core::TxChallenge::deserialize(
          core::open_envelope(submits[i].reply).value().second);
      auto confirm = core::TxConfirm::deserialize(
          core::open_envelope(confirms[i].request).value().second);
      out.push_back(RecordedConfirm{
          confirms[i].client,
          core::confirmation_statement(submit.value().digest(),
                                       challenge.value().nonce,
                                       confirm.value().verdict),
          confirm.value().signature, &confirms[i]});
    }
  };
  add(corpus.open_submit, corpus.open_confirm);
  add(corpus.blast_submit, corpus.blast_confirm);
  return out;
}

}  // namespace

LayerCosts measure_layers(const Corpus& corpus, const fs::path& scratch,
                          const fs::path& final_journal, Trace* trace) {
  LayerCosts costs;
  const auto add = [&](std::string name, double value, const char* unit) {
    costs.metrics.push_back(Metric{std::move(name), value, unit});
  };
  const auto format_of = [&](std::uint32_t client) {
    return corpus.clients[client].format;
  };
  std::uint64_t request = 0;

  // ---- sp: every recorded frame through handle_frame on a fresh shard SP
  // of an unstarted cluster built like the timed ones, in pass order.
  std::vector<double> enroll_begin_us, enroll_complete_tpm2_us, submit_us;
  std::array<std::vector<double>, kFormats> confirm_us;
  std::vector<double> sp_confirm_by_frame;  // aligned with recorded_confirms
  {
    cluster::VerifierCluster fresh(cluster_config(corpus, scratch / "sp"));
    const auto replay = [&](const Exchange& ex) {
      sp::ServiceProvider& shard =
          fresh.shard_sp(fresh.shard_for(corpus.clients[ex.client].id));
      const auto start = Clock::now();
      const Bytes reply = shard.handle_frame(ex.request);
      const auto end = Clock::now();
      if (reply != ex.reply) ++costs.mismatches;
      if (trace != nullptr) trace->add("sp.handle_frame", start, end, 0, ++request);
      return us_since(start, end);
    };
    const auto replay_confirm = [&](const Exchange& ex) {
      const double us = replay(ex);
      sp_confirm_by_frame.push_back(us);
      confirm_us[tpm::quote_format_index(format_of(ex.client))].push_back(us);
    };
    for (const Exchange& ex : corpus.enroll_begin) {
      enroll_begin_us.push_back(replay(ex));
    }
    for (const Exchange& ex : corpus.enroll_complete) {
      const double us = replay(ex);
      if (format_of(ex.client) == tpm::QuoteFormat::kTpm2) {
        enroll_complete_tpm2_us.push_back(us);
      }
    }
    for (std::size_t i = 0; i < corpus.open_submit.size(); ++i) {
      submit_us.push_back(replay(corpus.open_submit[i]));
      replay_confirm(corpus.open_confirm[i]);
    }
    for (const Exchange& ex : corpus.blast_submit) {
      submit_us.push_back(replay(ex));
    }
    for (const Exchange& ex : corpus.blast_confirm) replay_confirm(ex);
  }
  add("sp.submit_us", median(submit_us), "us");
  for (const tpm::QuoteFormat f : kAllFormats) {
    add(std::string("sp.confirm_us.") + tpm::quote_format_name(f),
        median(confirm_us[tpm::quote_format_index(f)]), "us");
  }
  add("sp.enroll_begin_us", median(enroll_begin_us), "us");
  add("sp.enroll_complete_us.tpm2", median(enroll_complete_tpm2_us), "us");
  costs.sp_confirm_p50_us = group_median(confirm_us);

  // ---- tpm: verify contexts built from the recorded enrollment keys.
  std::vector<std::unique_ptr<tpm::AttestationVerifyContext>> contexts(
      corpus.clients.size());
  std::array<std::vector<double>, kFormats> ctx_build_us;
  for (const Exchange& ex : corpus.enroll_complete) {
    auto complete = core::EnrollComplete::deserialize(
        core::open_envelope(ex.request).value().second);
    auto key = tpm::parse_public_key(complete.value().format,
                                     complete.value().confirmation_pubkey);
    if (!key.ok()) {
      ++costs.mismatches;
      continue;
    }
    const auto start = Clock::now();
    contexts[ex.client] =
        std::make_unique<tpm::AttestationVerifyContext>(key.take());
    const auto end = Clock::now();
    ctx_build_us[tpm::quote_format_index(format_of(ex.client))].push_back(
        us_since(start, end));
  }
  const std::vector<RecordedConfirm> confirms = recorded_confirms(corpus);
  std::array<std::vector<double>, kFormats> verify_us;
  std::vector<double> verify_cold_us, verify_by_frame, decode_by_frame;
  // Cold: each TPM 2.0 statement once, in corpus order, rotating across the
  // population's window tables.
  for (const RecordedConfirm& rc : confirms) {
    const auto& ctx = contexts[rc.client];
    if (ctx == nullptr || format_of(rc.client) != tpm::QuoteFormat::kTpm2) {
      continue;
    }
    const auto start = Clock::now();
    const bool ok =
        ctx->verify(crypto::HashAlg::kSha256, rc.statement, rc.signature).ok();
    const auto end = Clock::now();
    if (!ok) ++costs.mismatches;
    verify_cold_us.push_back(us_since(start, end));
  }
  // Warm: the same statement three times back to back; the third is kept.
  constexpr int kDecodeReps = 16;
  for (const RecordedConfirm& rc : confirms) {
    const auto& ctx = contexts[rc.client];
    double warm = 0;
    if (ctx != nullptr) {
      for (int rep = 0; rep < 3; ++rep) {
        const auto start = Clock::now();
        const bool ok =
            ctx->verify(crypto::HashAlg::kSha256, rc.statement, rc.signature)
                .ok();
        const auto end = Clock::now();
        if (!ok) ++costs.mismatches;
        warm = us_since(start, end);
        if (rep == 2 && trace != nullptr) {
          trace->add("tpm.verify", start, end, 0, ++request);
        }
      }
    }
    verify_us[tpm::quote_format_index(format_of(rc.client))].push_back(warm);
    verify_by_frame.push_back(warm);

    // core: envelope + message parse of the TxConfirm frame.
    const auto start = Clock::now();
    std::size_t parsed = 0;
    for (int rep = 0; rep < kDecodeReps; ++rep) {
      auto opened = core::open_envelope(rc.confirm->request);
      auto msg = core::TxConfirm::deserialize(opened.value().second);
      parsed += msg.ok() ? 1 : 0;
    }
    const auto end = Clock::now();
    if (parsed != kDecodeReps) ++costs.mismatches;
    decode_by_frame.push_back(us_since(start, end) / kDecodeReps);
    if (trace != nullptr) trace->add("core.decode", start, end, 0, ++request);
  }
  for (const tpm::QuoteFormat f : kAllFormats) {
    add(std::string("tpm.verify_us.") + tpm::quote_format_name(f),
        median(verify_us[tpm::quote_format_index(f)]), "us");
  }
  add("tpm.verify_cold_us.tpm2", median(verify_cold_us), "us");
  for (const tpm::QuoteFormat f : kAllFormats) {
    add(std::string("tpm.ctx_build_us.") + tpm::quote_format_name(f),
        median(ctx_build_us[tpm::quote_format_index(f)]), "us");
  }
  costs.verify_p50_us = group_median(verify_us);
  costs.decode_p50_us = median(decode_by_frame);
  add("core.decode_us", costs.decode_p50_us, "us");
  // sp_confirm_by_frame and the per-frame vectors above all follow
  // recorded_confirms' order (open-loop confirms, then the blast's).
  std::array<std::vector<double>, kFormats> self_us;
  for (std::size_t i = 0; i < confirms.size(); ++i) {
    self_us[tpm::quote_format_index(format_of(confirms[i].client))].push_back(
        sp_confirm_by_frame[i] - verify_by_frame[i] - decode_by_frame[i]);
  }
  costs.self_p50_us = group_median(self_us);
  add("sp.self_us.confirm", costs.self_p50_us, "us");

  // ---- store: the recording's journal records appended to a fresh
  // FileBackend, then recover + compact on the last pass's directory.
  std::vector<double> append_us;
  double recover_ms = 0, compact_ms = 0;
  if (corpus.spec.durable) {
    for (std::size_t shard = 0; shard < corpus.journal_records.size();
         ++shard) {
      const fs::path dir = scratch / ("append" + std::to_string(shard));
      fs::create_directories(dir);
      store::FileBackend backend(dir.string());
      store::DurableLogConfig config;
      config.backend = &backend;
      store::DurableLog log(config);
      for (const store::JournalRecord& record :
           corpus.journal_records[shard]) {
        const auto start = Clock::now();
        log.append(record.type, record.body);
        const auto end = Clock::now();
        append_us.push_back(us_since(start, end));
        if (trace != nullptr) trace->add("store.append", start, end, 0, ++request);
      }
    }
    if (fs::exists(final_journal / "shard0")) {
      store::FileBackend backend((final_journal / "shard0").string());
      store::DurableLogConfig config;
      config.backend = &backend;
      store::DurableLog log(config);
      auto start = Clock::now();
      auto state = log.recover();
      auto end = Clock::now();
      recover_ms = us_since(start, end) / 1000.0;
      if (state.ok()) {
        start = Clock::now();
        log.compact(state.value());
        end = Clock::now();
        compact_ms = us_since(start, end) / 1000.0;
      } else {
        ++costs.mismatches;
      }
    }
  }
  const Summary append = summarize(append_us);
  add("store.append_us.p50", append.p50, "us");
  add("store.append_us.p99", append.p99, "us");
  add("store.compact_ms", compact_ms, "ms");
  add("store.recover_ms", recover_ms, "ms");

  // ---- pal: timed while minting (set-up).
  for (const tpm::QuoteFormat f : kAllFormats) {
    add(std::string("pal.mint_us.") + tpm::quote_format_name(f),
        median(corpus.mint_us[tpm::quote_format_index(f)]), "us");
  }
  add("pal.confirm_virtual_ms", median(corpus.confirm_virtual_ms), "ms");
  return costs;
}

}  // namespace perfbench
