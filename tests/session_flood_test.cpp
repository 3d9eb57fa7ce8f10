// Regression test for the enrollment-state flooding bug: before the
// session table, every EnrollBegin inserted into an unbounded map, so an
// attacker spraying begin messages grew SP memory without limit. Now
// enrollment state is keyed by client id in a bounded, preallocated
// table -- a million begins must leave its memory footprint flat.
#include <gtest/gtest.h>

#include <string>

#include "core/trusted_path_pal.h"
#include "sp/service_provider.h"
#include "sp_frames.h"

namespace tp::sp {
namespace {

// The begin paths never touch the CA key or verify anything, so a
// minimal config is enough: no Privacy CA, no platform, no client.
SpConfig flood_config() {
  SpConfig cfg;
  cfg.golden_pcr17 = core::golden_pcr17();
  cfg.seed = bytes_of("flood");
  cfg.enroll_session_capacity = 256;
  cfg.tx_session_capacity = 256;
  return cfg;
}

TEST(SessionFlood, MillionEnrollBeginsFromOneClientStayFlat) {
  // One client re-beginning forever holds a single slot (each identical
  // EnrollBegin is answered from the live challenge's cached reply): no
  // growth, no evictions, memory byte-for-byte constant.
  ServiceProvider sp(flood_config());
  test::begin_enrollment(sp, core::EnrollBegin{"alice"});
  const std::size_t flat = sp.session_table_memory_bytes();
  ASSERT_GT(flat, 0u);

  for (int i = 0; i < 1'000'000; ++i) {
    test::begin_enrollment(sp, core::EnrollBegin{"alice"});
    if (i % 65536 == 0) {
      ASSERT_EQ(sp.session_table_memory_bytes(), flat) << "iteration " << i;
    }
  }
  EXPECT_EQ(sp.session_table_memory_bytes(), flat);
  EXPECT_EQ(sp.session_table_occupancy(), 1u);
  EXPECT_EQ(sp.session_evictions(), 0u);
}

TEST(SessionFlood, MillionEnrollBeginsFromDistinctClientsStayBounded) {
  // Distinct forged client ids exercise the eviction path instead of the
  // single slot: occupancy saturates at capacity and old half-open
  // sessions are shed, still with zero allocation churn.
  ServiceProvider sp(flood_config());
  test::begin_enrollment(sp, core::EnrollBegin{"probe"});
  const std::size_t flat = sp.session_table_memory_bytes();

  for (int i = 0; i < 1'000'000; ++i) {
    test::begin_enrollment(sp, core::EnrollBegin{"bot-" + std::to_string(i)});
    if (i % 65536 == 0) {
      ASSERT_EQ(sp.session_table_memory_bytes(), flat) << "iteration " << i;
      ASSERT_LE(sp.session_table_occupancy(), 512u);
    }
  }
  EXPECT_EQ(sp.session_table_memory_bytes(), flat);
  EXPECT_LE(sp.session_table_occupancy(), 512u);
  // 1'000'001 begins into <= 512 slots: almost all were evicted.
  EXPECT_GE(sp.session_evictions(), 999'000u);
}

TEST(SessionFlood, TxSubmitFloodStaysBounded) {
  // The confirmation side has the same shape (tx_id-keyed sessions), so
  // a submit flood must be equally harmless.
  ServiceProvider sp(flood_config());
  test::begin_transaction(sp, core::TxSubmit{"alice", "pay 0", bytes_of("p")});
  const std::size_t flat = sp.session_table_memory_bytes();

  for (int i = 0; i < 100'000; ++i) {
    test::begin_transaction(
        sp, core::TxSubmit{"alice", "pay " + std::to_string(i), bytes_of("p")});
    ASSERT_LE(sp.session_table_occupancy(), 512u);
  }
  EXPECT_EQ(sp.session_table_memory_bytes(), flat);
}

}  // namespace
}  // namespace tp::sp
