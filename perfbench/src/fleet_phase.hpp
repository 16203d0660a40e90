// Fleet-placement phase: one seeded request stream through
// placement::PlacementController once per policy (first-fit,
// best-fit-watts, exp-cost), each with its own cold CostOracle, followed
// by placement::offline_bound on the resident set.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "placement/controller.hpp"
#include "placement/request.hpp"
#include "trace.hpp"

namespace perfbench {

class FleetPhase {
 public:
  /// Set-up: the materialized request stream.
  explicit FleetPhase(const PhaseOptions& options);

  /// Runs passes for about `seconds` (at least one). A pass places the
  /// stream once per policy, each with a cold oracle; traced passes also
  /// time the oracle, policy, estimator and offline-bound layers.
  void measure(double seconds, bool traced, Tracer& tracer, Ledger& ledger);

  /// Reports the medians over every pass measured so far.
  void report(PhaseResult& result) const;

  /// Accounting check: the controller's incremental fleet watts must equal
  /// a from-scratch recomputation. Exposed for the self-test, which
  /// perturbs the incremental value.
  static void check_fleet_watts(double incremental_w, double recomputed_w,
                                const char* policy, Ledger& ledger);

  /// One first-fit run with a cold oracle; returns (fleet_w, recomputed).
  [[nodiscard]] std::pair<double, double> first_fit_watts() const;

 private:
  /// One pass; returns the fingerprint of its placement outcomes.
  std::uint64_t pass(bool traced, Tracer& tracer, Ledger& ledger);

  std::size_t fleet_size_;
  std::vector<vr::placement::VnRequest> requests_;
  /// Requests offered to each end-of-run fleet to time single decisions.
  std::vector<vr::placement::VnRequest> probes_;

  std::vector<double> rate_[3];  ///< requests/s per untraced pass, by policy
  std::vector<double> untraced_s_;
  std::vector<double> traced_s_;
  std::uint64_t reference_fp_ = 0;
  std::map<std::string, double> regime_;

  // Traced-pass accumulators (per-layer metrics).
  struct Layers {
    std::size_t policy_runs = 0;
    double cold_minus_warm_s = 0.0;
    double warm_s = 0.0;
    double bound_s = 0.0;
    std::uint64_t misses = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_lookups = 0;
    std::uint64_t shapes = 0;
    std::vector<double> decide_us[3];
    double candidates = 0.0;
    std::uint64_t decisions = 0;
    std::vector<double> estimate_us;
  } layers_;
};

}  // namespace perfbench
