// Result rows of bench_svc_throughput, one per (workers, queue_depth,
// max_batch) configuration, and the full-key lookup its summary line
// divides by. Header-only so tests/svc_rows_test.cpp can pin the
// lookup's abort contract.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace tp::bench {

struct ConfigResult {
  std::size_t workers = 0;
  std::size_t queue_depth = 0;
  std::size_t max_batch = 0;
  double rps = 0.0;
  std::string json;  // the row exactly as printed (sans newline)
};

/// The requests/s of the one row with this full key. Aborts unless
/// exactly one row matches, so a summary can never silently divide rows
/// from different sweeps.
inline double rps_of(const std::vector<ConfigResult>& results,
                     std::size_t workers, std::size_t queue_depth,
                     std::size_t max_batch) {
  const ConfigResult* match = nullptr;
  std::size_t matches = 0;
  for (const ConfigResult& r : results) {
    if (r.workers == workers && r.queue_depth == queue_depth &&
        r.max_batch == max_batch) {
      match = &r;
      ++matches;
    }
  }
  if (matches != 1) {
    std::fprintf(stderr,
                 "FATAL: %zu rows match workers=%zu queue_depth=%zu "
                 "max_batch=%zu\n",
                 matches, workers, queue_depth, max_batch);
    std::abort();
  }
  return match->rps;
}

}  // namespace tp::bench
