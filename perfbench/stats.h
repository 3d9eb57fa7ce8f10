// Summary maths for the verifier benchmark.
//
// Every timing the benchmark reports is computed here from raw samples,
// never from bucketed histograms: a percentile is the nearest-rank sample
// of the sorted values, so it is always a value that was measured.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least a
/// fraction `q` of all samples are at or below it, i.e. the sample of
/// 1-based rank ceil(q * n) in sorted order (rank 1 when q * n <= 1).
/// `q` is clamped to [0, 1]. Returns 0 for an empty input.
double nearest_rank(std::vector<double> samples, double q);

/// Median as the nearest-rank 0.5 percentile (the lower middle sample for
/// an even count, so it is always a measured value).
double median(std::vector<double> samples);

/// The median of each non-empty group, averaged over those groups (0 when
/// all are empty). For samples that fall into groups of very different
/// cost -- confirmations signed with RSA-2048 or P-256 -- the pooled
/// median sits on the edge between the groups' modes and flips from run to
/// run with their mix; this does not.
double group_median(std::span<const std::vector<double>> groups);

/// Samples strictly above the nearest-rank `q` percentile's rank: n - rank.
std::size_t samples_beyond(std::size_t n, double q);

/// A timing's report: its sample count, median, p99, and the highest
/// percentile that still has at least `kTailSamples` samples beyond it.
struct Summary {
  static constexpr std::size_t kTailSamples = 10;

  std::size_t n = 0;
  double p50 = 0;
  /// Nearest-rank p99 when p99_valid; otherwise the `high` value (the
  /// highest percentile this many samples support).
  double p99 = 0;
  bool p99_valid = false;
  /// Highest supported percentile, as a fraction: (n - 10) / n, so that
  /// exactly ten samples lie beyond it. 0 when n <= 10.
  double high_q = 0;
  double high = 0;
};

Summary summarize(std::vector<double> samples);

}  // namespace perfbench
