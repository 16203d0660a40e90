// Shared plumbing of the perfbench phases: wall-clock helpers, medians and
// quantiles, the simulated-statistics fingerprint, the failure ledger and
// the metric map every phase fills.
#pragma once

#include <sched.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Folded lookup results land here so the compiler cannot drop the work.
inline volatile std::uint64_t g_sink = 0;

/// CPUs the process may run on, as captured at first use.
inline const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

/// Pins the calling thread to `count` allowed CPUs from the `first`-th on
/// (wrapping around).
inline void pin_to_cpus(std::size_t first, std::size_t count) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = 0; i < count; ++i) {
    CPU_SET(cpus[(first + i) % cpus.size()], &set);
  }
  (void)sched_setaffinity(0, sizeof(set), &set);
}

inline void pin_to_cpu(std::size_t i) { pin_to_cpus(i, 1); }

/// Pins the calling thread to the next allowed CPU in turn. Single-threaded
/// passes call it before each pass, so a run's passes are spread over every
/// CPU it may use and its median does not hang on the one CPU the scheduler
/// happened to pick (on a shared VM, CPUs slow down independently).
inline void pin_next_cpu() {
  static std::size_t next = 0;
  pin_to_cpu(next++);
}

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// FNV-1a over the simulated statistics of a run. Only deterministic model
/// outputs go in (never a time), so one seed always yields one value and a
/// change that only speeds the simulator up must leave it unchanged.
class Fingerprint {
 public:
  void add(std::uint64_t value) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double value) noexcept { add(std::bit_cast<std::uint64_t>(value)); }
  void add(std::span<const std::uint64_t> values) noexcept {
    add(static_cast<std::uint64_t>(values.size()));
    for (const std::uint64_t v : values) add(v);
  }
  void add(const std::string& text) noexcept {
    add(static_cast<std::uint64_t>(text.size()));
    for (const char c : text) add(static_cast<std::uint64_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Counts operations attempted and checks failed. Every check goes through
/// check(); a failed check is never dropped, and its first few messages
/// are kept for the report.
class Ledger {
 public:
  void attempt(std::uint64_t operations) noexcept { attempted_ += operations; }
  bool check(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) {
      ++failed_;
      if (messages_.size() < 16) messages_.push_back(what);
    }
    return ok;
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] std::uint64_t checks() const noexcept { return checks_; }
  [[nodiscard]] const std::vector<std::string>& messages() const noexcept {
    return messages_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_ = 0;
  std::vector<std::string> messages_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics by name, in name order.
using MetricMap = std::map<std::string, Metric>;

/// What the phases are set up from.
struct PhaseOptions {
  std::uint64_t seed = 1;
  bool heavy = false;        ///< the workload's regime: light or heavy
  double fib_seconds = 1.0;  ///< how long the FIB phase churns in all
};

/// What a phase reports back.
struct PhaseResult {
  MetricMap end_to_end;
  MetricMap per_layer;
  Fingerprint fingerprint;
  /// Free-form regime facts for the run record (load, shares, counts).
  std::map<std::string, double> regime;
  std::size_t threads_used = 1;
};

}  // namespace perfbench
