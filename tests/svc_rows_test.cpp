// bench_svc_throughput's summary divides rows it picks by full key
// (workers, queue_depth, max_batch); the picker must return the one
// matching row and abort when zero or several rows match.
#include <gtest/gtest.h>

#include <vector>

#include "svc_rows.h"

namespace tp {
namespace {

using bench::ConfigResult;
using bench::rps_of;

std::vector<ConfigResult> sweep() {
  return {
      {1, 256, 1, 100.0, "{}"},  {4, 256, 1, 350.0, "{}"},
      {4, 16, 1, 300.0, "{}"},   {4, 256, 16, 400.0, "{}"},
      {8, 256, 1, 360.0, "{}"},
  };
}

TEST(SvcRows, RpsOfReturnsTheOneFullKeyMatch) {
  const std::vector<ConfigResult> rows = sweep();
  // Rows that share two of the three key fields must not be confused.
  EXPECT_DOUBLE_EQ(rps_of(rows, 4, 256, 1), 350.0);
  EXPECT_DOUBLE_EQ(rps_of(rows, 4, 16, 1), 300.0);
  EXPECT_DOUBLE_EQ(rps_of(rows, 4, 256, 16), 400.0);
  EXPECT_DOUBLE_EQ(rps_of(rows, 1, 256, 1), 100.0);
}

TEST(SvcRowsDeathTest, RpsOfAbortsWhenNoRowMatches) {
  const std::vector<ConfigResult> rows = sweep();
  EXPECT_DEATH((void)rps_of(rows, 2, 256, 1),
               "0 rows match workers=2 queue_depth=256 max_batch=1");
}

TEST(SvcRowsDeathTest, RpsOfAbortsWhenTwoRowsMatch) {
  // Two sweeps that both ran (4, 256, 1): dividing either would be a
  // silent mix-up.
  std::vector<ConfigResult> rows = sweep();
  rows.push_back({4, 256, 1, 999.0, "{}"});
  EXPECT_DEATH((void)rps_of(rows, 4, 256, 1),
               "2 rows match workers=4 queue_depth=256 max_batch=1");
}

}  // namespace
}  // namespace tp
