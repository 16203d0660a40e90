#include "fleet_phase.hpp"

#include <cmath>
#include <string>

#include "core/estimator.hpp"
#include "core/workload_cache.hpp"
#include "dataplane/frame_gen.hpp"
#include "fpga/device.hpp"
#include "obs/registry.hpp"
#include "placement/offline.hpp"
#include "placement/policy.hpp"

namespace perfbench {

namespace {

using namespace vr;

constexpr placement::PolicyKind kPolicies[] = {
    placement::PolicyKind::kFirstFit, placement::PolicyKind::kBestFitWatts,
    placement::PolicyKind::kExpCost};
constexpr const char* kPolicyKeys[] = {"firstfit", "bestfit", "expcost"};

constexpr std::size_t kFleetSize = 100;
constexpr std::size_t kRequests = 12000;
/// Mean VN lifetime in request ticks: the steady-state resident count,
/// kept below what the fleet can host in both regimes.
constexpr std::uint64_t kLightHoldingTicks = 150;
constexpr std::uint64_t kHeavyHoldingTicks = 400;
constexpr std::size_t kDecisionProbes = 200;

placement::PlacedVn placed(const placement::VnRequest& request,
                           const placement::CostOracle& oracle) {
  placement::PlacedVn vn;
  vn.request_id = request.id;
  vn.bucket = oracle.bucket_for(request.prefix_count);
  vn.mu_q = request.mu_q;
  vn.sla = request.sla;
  vn.departure_tick = request.departure_tick;
  return vn;
}

/// The scenario CostOracle prices a shape with (its documented mapping:
/// hosted VNs at the largest bucket, aggregate load split uniformly).
core::Scenario scenario_of(const placement::DeviceShape& shape,
                           const placement::OracleConfig& config) {
  core::Scenario scenario;
  scenario.scheme = placement::scheme_for(shape.mode);
  scenario.vn_count = shape.vn_count;
  scenario.grade = config.grade;
  scenario.bram_policy = config.bram_policy;
  scenario.stages = config.stages;
  scenario.alpha = config.alpha;
  scenario.seed = config.table_seed;
  scenario.table_profile.prefix_count =
      config.bucket_prefix_counts[shape.max_bucket];
  scenario.utilization.assign(
      shape.vn_count, shape.mu_total() / static_cast<double>(shape.vn_count));
  return scenario;
}

void add_result(Fingerprint& fp, const placement::ControllerResult& r,
                const placement::OfflineBound& bound) {
  fp.add(r.requests);
  fp.add(r.accepted);
  fp.add(r.rejected);
  fp.add(r.infeasible);
  fp.add(r.departures);
  fp.add(r.migrations);
  fp.add(static_cast<std::uint64_t>(r.devices_active));
  fp.add(static_cast<std::uint64_t>(r.peak_devices_active));
  fp.add(r.fleet_w);
  fp.add(r.watt_ticks);
  fp.add(bound.greedy_w);
  fp.add(static_cast<std::uint64_t>(bound.greedy_devices));
  fp.add(bound.fractional_lower_w);
}

}  // namespace

FleetPhase::FleetPhase(const PhaseOptions& options)
    : fleet_size_(kFleetSize) {
  placement::RequestStreamConfig config;
  config.seed = dataplane::FrameGenerator::derive_seed(options.seed, 300);
  config.mean_holding_ticks =
      options.heavy ? kHeavyHoldingTicks : kLightHoldingTicks;
  std::vector<placement::VnRequest> all =
      placement::generate_requests(config, kRequests + kDecisionProbes);
  probes_.assign(all.begin() + kRequests, all.end());
  all.resize(kRequests);
  requests_ = std::move(all);
}

void FleetPhase::check_fleet_watts(double incremental_w, double recomputed_w,
                                   const char* policy, Ledger& ledger) {
  ledger.check(std::abs(incremental_w - recomputed_w) <=
                   1e-6 * std::max(1.0, std::abs(recomputed_w)),
               std::string("fleet: incremental fleet watts ") +
                   std::to_string(incremental_w) + " != recomputed " +
                   std::to_string(recomputed_w) + " (" + policy + ")");
}

std::pair<double, double> FleetPhase::first_fit_watts() const {
  placement::CostOracle oracle(fpga::DeviceSpec::xc6vlx760());
  placement::ControllerConfig config;
  config.policy = placement::PolicyKind::kFirstFit;
  config.fleet_size = fleet_size_;
  placement::PlacementController controller(&oracle, config);
  const placement::ControllerResult r = controller.run(requests_);
  return {r.fleet_w, controller.recomputed_fleet_w()};
}

std::uint64_t FleetPhase::pass(bool traced, Tracer& tracer, Ledger& ledger) {
  const double requests = static_cast<double>(requests_.size());
  const bool first = rate_[0].empty() && !traced;
  Fingerprint fp;
  double pass_s = 0.0;
  for (std::size_t p = 0; p < 3; ++p) {
    placement::ControllerConfig config;
    config.policy = kPolicies[p];
    config.fleet_size = fleet_size_;
    placement::CostOracle oracle(fpga::DeviceSpec::xc6vlx760());
    placement::PlacementController controller(&oracle, config,
                                              &obs::Registry::global());
    Tracer::Span run_span(tracer, "placement.controller.run", "placement");
    const placement::ControllerResult r = controller.run(requests_);
    const double run_s = run_span.stop();
    pass_s += run_s;
    placement::OfflineBound bound;
    {
      Tracer::Span span(tracer, "placement.offline_bound", "placement");
      bound = placement::offline_bound(controller.fleet().resident_vns(),
                                       oracle);
      layers_.bound_s += span.stop();
    }
    add_result(fp, r, bound);
    ledger.attempt(r.requests);
    ledger.check(r.accepted + r.rejected == r.requests,
                 std::string("fleet: accepted + rejected != requests (") +
                     kPolicyKeys[p] + ")");
    check_fleet_watts(r.fleet_w, controller.recomputed_fleet_w(),
                      kPolicyKeys[p], ledger);
    ledger.check(controller.fleet().active_devices() == 0 ||
                     bound.fractional_lower_w <= r.fleet_w * (1.0 + 1e-9),
                 std::string("fleet: online watts below the offline lower "
                             "bound (") +
                     kPolicyKeys[p] + ")");
    if (first) {
      const std::string key = std::string("fleet.") + kPolicyKeys[p];
      regime_[key + ".devices_active"] = static_cast<double>(r.devices_active);
      regime_[key + ".infeasible_share"] =
          static_cast<double>(r.infeasible) / requests;
      regime_[key + ".rejected_share"] =
          static_cast<double>(r.rejected) / requests;
      regime_[key + ".migrations"] = static_cast<double>(r.migrations);
    }
    if (!traced) {
      rate_[p].push_back(requests / run_s);
      continue;
    }
    Layers& l = layers_;
    ++l.policy_runs;

    // Oracle layer: misses of the cold oracle, its realization cache, and
    // the cold cost (this run minus a warm rerun of the same policy).
    l.misses += oracle.estimates_computed();
    const core::WorkloadCache::Stats cache = oracle.workload_cache_stats();
    l.cache_hits += cache.hits;
    l.cache_lookups += cache.hits + cache.misses;
    l.shapes += controller.fleet().groups().size();
    {
      placement::PlacementController warm(&oracle, config,
                                          &obs::Registry::global());
      Tracer::Span span(tracer, "placement.controller.run_warm", "placement");
      const placement::ControllerResult again = warm.run(requests_);
      const double warm_s = span.stop();
      l.warm_s += warm_s;
      l.cold_minus_warm_s += run_s - warm_s;
      Fingerprint a;
      Fingerprint b;
      add_result(a, r, bound);
      add_result(b, again, bound);
      ledger.check(a.value() == b.value(),
                   std::string("fleet: warm rerun diverges (") +
                       kPolicyKeys[p] + ")");
    }

    // Policy layer: single decisions on the end-of-run fleet, warm oracle
    // (one untimed round first so every probe shape is priced).
    const auto policy = placement::make_policy(kPolicies[p]);
    const placement::Fleet& fleet = controller.fleet();
    for (const placement::VnRequest& probe : probes_) {
      (void)policy->decide(fleet, oracle, placed(probe, oracle));
    }
    {
      Tracer::Span span(tracer, "placement.policy.decide", "placement");
      for (const placement::VnRequest& probe : probes_) {
        (void)policy->decide(fleet, oracle, placed(probe, oracle));
      }
      l.decide_us[p].push_back(span.stop() * 1e6 /
                               static_cast<double>(probes_.size()));
    }
    for (const placement::VnRequest& probe : probes_) {
      l.candidates += static_cast<double>(
          placement::feasible_candidates(fleet, oracle, placed(probe, oracle))
              .size());
      ++l.decisions;
    }

    // Estimator layer: the end-of-run shapes priced again directly, against
    // already-realized workloads.
    const core::PowerEstimator estimator(fpga::DeviceSpec::xc6vlx760());
    core::WorkloadCache workloads;
    std::vector<
        std::pair<core::Scenario, std::shared_ptr<const core::Workload>>>
        scenarios;
    for (const auto& [shape, devices] : fleet.groups()) {
      core::Scenario scenario = scenario_of(shape, oracle.config());
      auto workload = workloads.realize(scenario);
      scenarios.emplace_back(std::move(scenario), std::move(workload));
    }
    if (!scenarios.empty()) {
      Tracer::Span span(tracer, "core.estimator.estimate", "core");
      constexpr int kRepeats = 20;
      double sink = 0.0;
      for (int rep = 0; rep < kRepeats; ++rep) {
        for (const auto& [scenario, workload] : scenarios) {
          sink +=
              estimator.estimate(scenario, *workload).power.total_w().value();
        }
      }
      l.estimate_us.push_back(span.stop() * 1e6 /
                              static_cast<double>(kRepeats * scenarios.size()));
      g_sink = static_cast<std::uint64_t>(sink);
    }
  }
  (traced ? traced_s_ : untraced_s_).push_back(pass_s);
  return fp.value();
}

void FleetPhase::measure(double seconds, bool traced, Tracer& tracer,
                         Ledger& ledger) {
  const Clock::time_point start = Clock::now();
  do {
    pin_next_cpu();
    const bool first = rate_[0].empty() && !traced;
    const std::uint64_t fp = pass(traced, tracer, ledger);
    if (first) reference_fp_ = fp;
    ledger.check(fp == reference_fp_,
                 traced ? "fleet: traced pass does not reproduce the "
                          "untraced outcome"
                        : "fleet: pass did not repeat the placement outcome");
  } while (seconds_since(start) < seconds);
}

void FleetPhase::report(PhaseResult& result) const {
  const double requests = static_cast<double>(requests_.size());
  for (std::size_t p = 0; p < 3; ++p) {
    result.end_to_end[std::string(kPolicyKeys[p]) + "_req_per_s"] = {
        median(rate_[p]), "requests/s"};
  }
  result.fingerprint.add(reference_fp_);
  for (const auto& [key, value] : regime_) result.regime[key] = value;
  result.regime["fleet.devices"] = static_cast<double>(fleet_size_);
  result.regime["fleet.requests"] = requests;
  result.regime["fleet.passes"] = static_cast<double>(rate_[0].size());
  if (traced_s_.empty()) return;

  const Layers& l = layers_;
  const auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double runs = static_cast<double>(l.policy_runs);
  MetricMap& m = result.per_layer;
  m["placement.oracle.misses"] = {per(static_cast<double>(l.misses), runs),
                                  "count"};
  m["placement.oracle.cache_hit_ratio"] = {
      per(static_cast<double>(l.cache_hits),
          static_cast<double>(l.cache_lookups)),
      "share"};
  m["placement.oracle.cold_s"] = {per(l.cold_minus_warm_s, runs) * 3.0, "s"};
  m["core.estimator.us_per_estimate"] = {median(l.estimate_us), "us"};
  for (std::size_t p = 0; p < 3; ++p) {
    m[std::string("placement.policy.") + kPolicyKeys[p] + ".decide_us"] = {
        median(l.decide_us[p]), "us"};
  }
  m["placement.policy.candidates_per_decision"] = {
      per(l.candidates, static_cast<double>(l.decisions)), "count"};
  m["placement.fleet.distinct_shapes"] = {
      per(static_cast<double>(l.shapes), runs), "count"};
  m["placement.controller.us_per_request"] = {
      per(l.warm_s * 1e6, runs * requests), "us"};
  const double passes =
      static_cast<double>(untraced_s_.size() + traced_s_.size());
  m["placement.offline.bound_s"] = {per(l.bound_s, passes * 3.0), "s"};
  const double untraced = median(untraced_s_);
  m["trace.fleet.overhead_share"] = {
      per(median(traced_s_) - untraced, untraced), "share"};
}

}  // namespace perfbench
