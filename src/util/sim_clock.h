// Virtual time.
//
// The evaluation reproduces *hardware* latencies (TPM command times, SKINIT
// cost, human reaction time) that do not exist on this machine, so every
// component charges its cost to a shared virtual clock instead of sleeping.
// Benchmarks then report virtual durations that are directly comparable to
// the paper's wall-clock measurements.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tp {

/// Nanoseconds of virtual time. A plain strong-ish typedef with helpers;
/// arithmetic stays explicit at call sites.
struct SimDuration {
  std::int64_t ns = 0;

  static constexpr SimDuration nanos(std::int64_t v) { return {v}; }
  static constexpr SimDuration micros(std::int64_t v) { return {v * 1000}; }
  static constexpr SimDuration millis(std::int64_t v) {
    return {v * 1000000};
  }
  static constexpr SimDuration seconds(double v) {
    return {static_cast<std::int64_t>(v * 1e9)};
  }

  double to_millis() const { return static_cast<double>(ns) / 1e6; }
  double to_seconds() const { return static_cast<double>(ns) / 1e9; }

  friend constexpr SimDuration operator+(SimDuration a, SimDuration b) {
    return {a.ns + b.ns};
  }
  friend constexpr SimDuration operator-(SimDuration a, SimDuration b) {
    return {a.ns - b.ns};
  }
  friend constexpr bool operator==(SimDuration a, SimDuration b) {
    return a.ns == b.ns;
  }
  friend constexpr auto operator<=>(SimDuration a, SimDuration b) {
    return a.ns <=> b.ns;
  }
};

/// Absolute virtual instant (ns since simulation start).
struct SimTime {
  std::int64_t ns = 0;

  friend constexpr SimTime operator+(SimTime t, SimDuration d) {
    return {t.ns + d.ns};
  }
  friend constexpr SimDuration operator-(SimTime a, SimTime b) {
    return {a.ns - b.ns};
  }
  friend constexpr bool operator==(SimTime a, SimTime b) {
    return a.ns == b.ns;
  }
  friend constexpr auto operator<=>(SimTime a, SimTime b) {
    return a.ns <=> b.ns;
  }
};

/// Monotonic virtual clock plus a span log for latency-breakdown
/// experiments (experiment T2 reports per-phase costs read from here).
class SimClock {
 public:
  SimTime now() const { return now_; }

  /// Advances time by `d` (d must be >= 0).
  void advance(SimDuration d);

  /// Named span: advances the clock and records (label, start, duration).
  void charge(const std::string& label, SimDuration d);

  struct Span {
    std::string label;
    SimTime start;
    SimDuration duration;
  };
  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of durations of all spans whose label equals `label`.
  SimDuration total_for(const std::string& label) const;

 private:
  SimTime now_;
  std::vector<Span> spans_;
};

}  // namespace tp
