// Experiment F7: session-table behaviour under abandonment.
//
// The scenario the bounded session table exists for: clients (or an
// attacker) open confirmation sessions and walk away. The seed's
// unbounded pending maps grew without limit under that load; the table
// must instead hold throughput steady and memory flat while expiring or
// evicting the abandoned fraction.
//
// Measurements, at 0% / 25% / 75% abandoned sessions:
//   1. BM_SessionChurn  -- begin+settle throughput through the real SP
//                          (require_trusted_path=false isolates session
//                          bookkeeping from RSA verification);
//   2. BM_SessionTableOps -- the raw table begin/find/erase kernel.
//
// Counters reported per run: table memory (flat by construction),
// expirations and evictions, so the three abandonment levels can be
// compared line by line in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <string>

#include "core/trusted_path_pal.h"
#include "proto/session_table.h"
#include "sp/service_provider.h"
#include "sp_frames.h"
#include "util/rng.h"

using namespace tp;

namespace {

sp::SpConfig churn_config() {
  sp::SpConfig cfg;
  cfg.golden_pcr17 = core::golden_pcr17();
  cfg.seed = bytes_of("f7");
  cfg.require_trusted_path = false;  // settle without PAL signatures
  cfg.tx_session_capacity = 4096;
  cfg.session_ttl = SimDuration::seconds(120);
  return cfg;
}

}  // namespace

static void BM_SessionChurn(benchmark::State& state) {
  const int abandon_pct = static_cast<int>(state.range(0));
  sp::ServiceProvider sp(churn_config());
  SimRng rng(1234);
  // Virtual time advances ~1ms per submission, so abandoned sessions
  // age out mid-run (the TTL covers ~120k submissions).
  std::int64_t now_ns = 0;
  std::uint64_t settled = 0;
  std::uint64_t order = 0;

  for (auto _ : state) {
    now_ns += 1'000'000;
    sp.advance_time_to(SimTime{now_ns});
    // A distinct payload per submission: a byte-identical TxSubmit would
    // replay the live challenge instead of opening a session.
    const core::TxChallenge challenge = test::begin_transaction(
        sp, core::TxSubmit{"alice", "pay 10 EUR",
                           bytes_of("order " + std::to_string(order++))});
    if (static_cast<int>(rng.next_below(100)) < abandon_pct) {
      continue;  // walk away: the table must clean this up itself
    }
    core::TxConfirm confirm;
    confirm.client_id = "alice";
    confirm.tx_id = challenge.tx_id;
    confirm.verdict = core::Verdict::kConfirmed;
    benchmark::DoNotOptimize(test::complete_transaction(sp, confirm));
    ++settled;
  }

  state.SetItemsProcessed(state.iterations());
  state.counters["table_kib"] = benchmark::Counter(
      static_cast<double>(sp.session_table_memory_bytes()) / 1024.0);
  state.counters["occupancy"] =
      benchmark::Counter(static_cast<double>(sp.session_table_occupancy()));
  state.counters["expired"] =
      benchmark::Counter(static_cast<double>(sp.session_expirations()));
  state.counters["evicted"] =
      benchmark::Counter(static_cast<double>(sp.session_evictions()));
  state.SetLabel(std::to_string(abandon_pct) + "% abandoned, " +
                 std::to_string(settled) + " settled");
}
BENCHMARK(BM_SessionChurn)->Arg(0)->Arg(25)->Arg(75);

static void BM_SessionTableOps(benchmark::State& state) {
  const int abandon_pct = static_cast<int>(state.range(0));
  proto::SessionTable table(
      {.capacity = 4096, .ttl = SimDuration::seconds(120)});
  SimRng rng(5678);
  std::int64_t now_ns = 0;
  std::uint64_t tx_id = 0;

  for (auto _ : state) {
    now_ns += 1'000'000;
    const auto key = proto::SessionTable::tx_key(tx_id++);
    table.begin(key, SimTime{now_ns}).set_nonce(bytes_of("nonce"));
    if (static_cast<int>(rng.next_below(100)) < abandon_pct) continue;
    benchmark::DoNotOptimize(table.find(key, SimTime{now_ns}));
    table.erase(key);
  }

  state.SetItemsProcessed(state.iterations());
  state.counters["table_kib"] = benchmark::Counter(
      static_cast<double>(table.memory_bytes()) / 1024.0);
  state.counters["expired"] =
      benchmark::Counter(static_cast<double>(table.expirations()));
  state.counters["evicted"] =
      benchmark::Counter(static_cast<double>(table.evictions()));
  state.SetLabel(std::to_string(abandon_pct) + "% abandoned");
}
BENCHMARK(BM_SessionTableOps)->Arg(0)->Arg(25)->Arg(75);

BENCHMARK_MAIN();
