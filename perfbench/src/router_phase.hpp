// Router phase: one seeded frame stream through the per-packet dataplane on
// the separate (VS, K engines) and merged (VM) lookup arrangements, and
// through the cycle-level dataplane with the dynamic-VC policy; every run
// is priced by power::ActivityModel.
#pragma once

#include <memory>
#include <vector>

#include "common.hpp"
#include "dataplane/cycle/cycle_router.hpp"
#include "dataplane/full_router.hpp"
#include "netbase/routing_table.hpp"
#include "pipeline/router.hpp"
#include "power/activity_model.hpp"
#include "trace.hpp"
#include "trie/unibit_trie.hpp"
#include "virt/merged_trie.hpp"

namespace perfbench {

class RouterPhase {
 public:
  /// Set-up: per-VN tables, leaf-pushed tries, the merged trie, the engine
  /// memory images the pricing needs, and the frame stream.
  explicit RouterPhase(const PhaseOptions& options);

  /// Runs passes for about `seconds` (at least one). Untraced passes give
  /// the end-to-end numbers; traced passes time each stage and layer.
  void measure(double seconds, bool traced, Tracer& tracer, Ledger& ledger);

  /// Reports the medians over every pass measured so far.
  void report(PhaseResult& result) const;

  /// Egress check: each VN's transmitted (port, bytes) multiset must equal
  /// the UnibitTrie prediction for the frames the parser accepts. Exposed
  /// for the self-test, which feeds it a corrupted record list.
  void check_egress(const std::vector<vr::dataplane::EgressRecord>& egress,
                    const char* run, Ledger& ledger);

  /// One per-packet run on the merged arrangement (self-test input).
  [[nodiscard]] vr::dataplane::FullRouterResult run_merged_once();

 private:
  struct PassTimes {
    double full_router_s = 0.0;  ///< VS + VM runs, pricing included
    double cycle_s = 0.0;        ///< cycle-level run, pricing included
    std::uint64_t fingerprint = 0;
  };

  PassTimes untraced_pass(Ledger& ledger, bool verify_egress);
  PassTimes traced_pass(Tracer& tracer, Ledger& ledger);

  /// The lookup stage: K separate engines (VS) or the merged engine (VM).
  [[nodiscard]] std::unique_ptr<vr::pipeline::VirtualRouter> make_lookup(
      bool merged) const;
  [[nodiscard]] vr::power::ActivityPower price(
      const vr::power::ActivityCounters& activity, bool merged) const;
  void check_conservation(std::uint64_t transmitted,
                          const vr::dataplane::ParserStats& parser,
                          const vr::dataplane::EditorStats& editor,
                          std::uint64_t tail_drops, const char* run,
                          Ledger& ledger) const;

  std::vector<vr::net::RoutingTable> tables_;
  std::vector<vr::trie::UnibitTrie> tries_;  ///< leaf-pushed, per VN
  std::vector<vr::pipeline::TrieView> views_;
  std::unique_ptr<vr::virt::MergedTrie> merged_;
  std::vector<vr::power::EngineSpec> engines_;
  vr::power::EngineSpec merged_engine_;
  std::vector<vr::dataplane::IngressFrame> frames_;  ///< sorted by cycle
  vr::dataplane::FullRouterConfig full_config_;
  vr::dataplane::cycle::CycleConfig cycle_config_;
  vr::power::ActivityModel activity_model_;

  /// Per-VN expected (port, bytes) pairs, sorted; built on first use.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      expected_egress_;
  std::uint64_t expected_tail_free_ = 0;

  std::vector<double> full_rate_;   ///< frames/s per untraced pass
  std::vector<double> cycle_rate_;  ///< frames/s per untraced pass
  std::vector<double> untraced_s_;
  std::vector<double> traced_s_;
  std::uint64_t reference_fp_ = 0;

  // Traced-pass accumulators (per-layer metrics).
  struct LayerSums {
    double parser_s = 0, lookup_s = 0, editor_s = 0, scheduler_s = 0;
    double full_router_s = 0;  ///< direct run_full_router calls
    std::uint64_t frames = 0, edited = 0, enqueued = 0;
    std::uint64_t cycles = 0, stage_ticks = 0, busy_stage_ticks = 0;
    std::uint64_t refused_offers = 0;
    std::uint64_t grants = 0, comparisons = 0;
    double step_s = 0, accept_s = 0;
    std::uint64_t cycle_cycles = 0, cycle_frames = 0;
    std::uint64_t vc_alloc_stalls = 0, credit_stalls = 0;
    std::vector<double> estimate_us;
  } sums_;
};

}  // namespace perfbench
