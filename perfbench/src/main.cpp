// perfbench — end-to-end and per-layer benchmark of the simulators: the
// per-packet and cycle-level router dataplanes with activity pricing, the
// FIB snapshot publisher under concurrent readers, and online fleet
// placement. See perfbench/README.md for workloads, metrics and checks.
//
//   perfbench --workload light|heavy --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//   perfbench --selftest
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
// ones; with --trace 1 the per-layer ones, and a Chrome trace-event file
// is written to DIR.
#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "common.hpp"
#include "fib_phase.hpp"
#include "fleet_phase.hpp"
#include "router_phase.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

/// Share of the measured time each phase gets.
constexpr double kRouterShare = 0.45;
constexpr double kFibShare = 0.30;
constexpr double kFleetShare = 0.25;
/// Set-up repetitions; setup_s is their median. A set-up takes about 30 ms,
/// so a few more repetitions cost little and steady the median.
constexpr int kSetups = 15;
/// The phases take turns this many times, so every metric's passes are
/// spread over the whole run.
constexpr int kRounds = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string out_dir = ".bench_build/perfbench/out";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> v;
    if (arg == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (!(v = value())) return std::nullopt;
    try {
      if (arg == "--workload") {
        args.workload = *v;
      } else if (arg == "--seed") {
        args.seed = std::stoull(*v);
      } else if (arg == "--seconds") {
        args.seconds = std::stod(*v);
      } else if (arg == "--trace") {
        args.trace = std::stoi(*v) != 0;
      } else if (arg == "--out-dir") {
        args.out_dir = *v;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (args.selftest) return args;
  if (args.workload != "light" && args.workload != "heavy") return std::nullopt;
  if (!(args.seconds > 0.0)) return std::nullopt;
  return args;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_number(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

std::string json_metrics(const MetricMap& metrics) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << json_number(metric.value) << ", \"unit\": \"" << metric.unit
        << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

struct Phases {
  explicit Phases(const PhaseOptions& options)
      : router(options), fib(options), fleet(options) {}

  RouterPhase router;
  FibPhase fib;
  FleetPhase fleet;
};

/// Each deliberate fault must be counted as a failure by the check that
/// guards against it, and the same check must pass on clean data.
int selftest() {
  Phases phases(PhaseOptions{});
  int broken = 0;
  const auto expect = [&](const char* fault, const Ledger& clean,
                          const Ledger& faulty) {
    const bool ok = clean.failed() == 0 && faulty.failed() > 0;
    std::cout << "selftest: " << fault << ": clean failed=" << clean.failed()
              << ", with fault failed=" << faulty.failed() << " -> "
              << (ok ? "ok" : "BROKEN") << "\n";
    if (!ok) ++broken;
  };

  {
    const vr::dataplane::FullRouterResult run = phases.router.run_merged_once();
    Ledger clean;
    phases.router.check_egress(run.egress, "VM", clean);
    std::vector<vr::dataplane::EgressRecord> flipped = run.egress;
    flipped.at(flipped.size() / 2).port =
        static_cast<vr::net::NextHop>(flipped.at(flipped.size() / 2).port ^ 1u);
    Ledger faulty;
    phases.router.check_egress(flipped, "VM", faulty);
    expect("flipped next hop", clean, faulty);
  }
  {
    const auto [fleet_w, recomputed_w] = phases.fleet.first_fit_watts();
    Ledger clean;
    FleetPhase::check_fleet_watts(fleet_w, recomputed_w, "first-fit", clean);
    Ledger faulty;
    FleetPhase::check_fleet_watts(fleet_w * (1.0 + 1e-4), recomputed_w,
                                  "first-fit", faulty);
    expect("perturbed fleet watts", clean, faulty);
  }
  {
    Fingerprint fp;
    Ledger clean;
    phases.fib.check_samples(phases.fib.deterministic_samples(8, &fp), 64,
                             clean);
    Ledger faulty;
    phases.fib.check_samples(phases.fib.stale_samples(8), 64, faulty);
    expect("lookup against a stale table", clean, faulty);
  }
  std::cout << "selftest: " << (broken == 0 ? "all checks catch their fault"
                                            : "some checks missed a fault")
            << "\n";
  return broken == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) {
    std::cerr << "usage: perfbench --workload light|heavy --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n"
                 "       perfbench --selftest\n";
    return 2;
  }
  const Args& args = *parsed;
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to record numbers from a "
              << PERFBENCH_BUILD_TYPE << " build (Release required)\n";
    return 3;
  }
  if (args.selftest) return selftest();

  // Keep freed memory in the heap instead of returning it to the kernel:
  // repeated passes then reuse already-mapped pages, and the numbers
  // measure the simulators rather than first-touch page faults, whose cost
  // on a virtual machine swings with the host's load. Set-up still pays
  // its faults (it runs first, and is reported as setup_s).
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  const std::size_t nproc = allowed_cpus().size();
  PhaseOptions options;
  options.seed = args.seed;
  options.heavy = args.workload == "heavy";
  options.fib_seconds = args.seconds * kFibShare;

  Tracer tracer(args.trace);
  Ledger ledger;

  // Set-up, several times; the last set-up is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Phases> phases;
  for (int i = 0; i < kSetups; ++i) {
    phases.reset();
    Tracer::Span span(tracer, "perfbench.setup", "setup");
    phases = std::make_unique<Phases>(options);
    setup_s.push_back(span.stop());
  }

  const auto run_rounds = [&](double seconds, bool traced) {
    for (int round = 0; round < kRounds; ++round) {
      {
        Tracer::Span span(tracer, "perfbench.router", "phase");
        phases->router.measure(seconds * kRouterShare / kRounds, traced,
                               tracer, ledger);
      }
      {
        Tracer::Span span(tracer, "perfbench.fleet", "phase");
        phases->fleet.measure(seconds * kFleetShare / kRounds, traced, tracer,
                              ledger);
      }
      {
        Tracer::Span span(tracer, "perfbench.fib", "phase");
        phases->fib.measure(seconds * kFibShare / kRounds, traced, tracer);
      }
    }
  };
  // A traced run first measures untraced, then traced: the difference is
  // the tracing overhead.
  if (args.trace) {
    run_rounds(args.seconds / 2.0, false);
    run_rounds(args.seconds / 2.0, true);
  } else {
    run_rounds(args.seconds, false);
  }
  PhaseResult result;
  phases->router.report(result);
  phases->fleet.report(result);
  phases->fib.report(ledger, result);

  result.end_to_end["setup_s"] = {median(setup_s), "s"};
  result.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  std::string trace_file;
  if (args.trace) {
    trace_file = stem + ".trace.json";
    result.regime["trace.spans"] = static_cast<double>(tracer.span_count());
    result.regime["trace.spans_dropped"] =
        static_cast<double>(tracer.dropped());
    if (!tracer.write_chrome(trace_file)) {
      ledger.check(false, "could not write the Chrome trace " + trace_file);
    }
  }

  const double failed_share =
      ledger.attempted() == 0
          ? 1.0
          : static_cast<double>(ledger.failed()) /
                static_cast<double>(ledger.attempted());
  for (const std::string& message : ledger.messages()) {
    std::cerr << "perfbench: check failed: " << message << "\n";
  }

  char fingerprint[32];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                static_cast<unsigned long long>(result.fingerprint.value()));
  std::ostringstream record;
  record << "{\"workload\": \"" << args.workload << "\", \"seed\": "
         << args.seed << ", \"seconds\": " << json_number(args.seconds)
         << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"nproc\": " << nproc
         << ", \"threads_used\": " << result.threads_used
         << ", \"compiler\": \"" << PERFBENCH_COMPILER
         << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
         << "\", \"fingerprint\": \"" << fingerprint
         << "\", \"checks\": " << ledger.checks()
         << ", \"failed_share\": " << json_number(failed_share)
         << ", \"trace_file\": \"" << trace_file << "\", \"regime\": {";
  bool first = true;
  for (const auto& [name, value] : result.regime) {
    record << (first ? "" : ", ") << "\"" << name
           << "\": " << json_number(value);
    first = false;
  }
  record << "}, \"end_to_end\": " << json_metrics(result.end_to_end)
         << ", \"per_layer\": " << json_metrics(result.per_layer) << "}";
  {
    std::ofstream out(stem + ".record.json");
    out << record.str() << "\n";
  }
  std::cout << "run_record " << record.str() << "\n";

  const bool correct = ledger.failed() == 0 && ledger.attempted() > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted()
            << ", \"failed\": " << ledger.failed() << ", \"metrics\": "
            << json_metrics(args.trace ? result.per_layer : result.end_to_end)
            << "}" << std::endl;
  return 0;
}
