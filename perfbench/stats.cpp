#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

/// 1-based nearest rank of quantile q among n samples (n >= 1).
std::size_t rank_of(std::size_t n, double q) {
  q = std::clamp(q, 0.0, 1.0);
  // Guard against q * n landing a hair above an integer through rounding
  // (0.99 * 1000 = 990.0000000000001 would otherwise give rank 991).
  const double exact = q * static_cast<double>(n);
  const double rounded = std::round(exact);
  const double target = std::fabs(exact - rounded) < 1e-9 ? rounded : exact;
  const auto rank = static_cast<std::size_t>(std::ceil(target));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double nearest_rank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const std::size_t rank = rank_of(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  return nearest_rank(std::move(samples), 0.5);
}

double group_median(std::span<const std::vector<double>> groups) {
  double sum = 0;
  std::size_t present = 0;
  for (const std::vector<double>& g : groups) {
    if (g.empty()) continue;
    sum += median(g);
    ++present;
  }
  return present == 0 ? 0 : sum / static_cast<double>(present);
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - rank_of(n, q);
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (s.n == 0) return s;
  std::sort(samples.begin(), samples.end());
  const auto at_rank = [&](double q) {
    return samples[rank_of(s.n, q) - 1];
  };
  s.p50 = at_rank(0.5);
  if (s.n > Summary::kTailSamples) {
    s.high_q = static_cast<double>(s.n - Summary::kTailSamples) /
               static_cast<double>(s.n);
    s.high = at_rank(s.high_q);
  } else {
    s.high = samples.back();
  }
  s.p99_valid = samples_beyond(s.n, 0.99) >= Summary::kTailSamples;
  s.p99 = s.p99_valid ? at_rank(0.99) : s.high;
  return s;
}

}  // namespace perfbench
