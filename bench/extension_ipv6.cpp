// Extension: IPv6 scaling study. The paper models IPv4 (32-bit keys, 28
// pipeline stages); IPv6 edge tables reach /64, so the same architecture
// needs ~64 stages and carries deeper tries. This bench rebuilds the
// paper's per-engine numbers for a synthetic IPv6 edge table and compares
// them with the IPv4 baseline: logic power scales with the stage count,
// memory power with the (larger) trie, and the virtualization argument —
// leakage shared across K networks — is unchanged.
#include "bench_common.hpp"
#include "fpga/freq_model.hpp"
#include "fpga/xpe_tables.hpp"
#include "ipv6/ipv6_trie.hpp"
#include "netbase/table_gen.hpp"
#include "trie/memory_layout.hpp"
#include "trie/trie_stats.hpp"

namespace {

struct EngineNumbers {
  std::size_t stages = 0;
  std::size_t nodes = 0;
  double memory_kb = 0.0;
  double freq_mhz = 0.0;
  double logic_mw = 0.0;
  double bram_mw = 0.0;
};

EngineNumbers evaluate(const std::vector<std::uint64_t>& level_bits,
                       std::size_t nodes, std::size_t stages) {
  using namespace vr;
  EngineNumbers out;
  out.stages = stages;
  out.nodes = nodes;
  std::vector<std::uint64_t> stage_bits = level_bits;
  stage_bits.resize(stages, 0);
  const fpga::StageBramPlan plan =
      fpga::plan_stage_bram(stage_bits, fpga::BramPolicy::kMixed);
  for (const std::uint64_t bits : stage_bits) {
    out.memory_kb += static_cast<double>(bits) / 1024.0;
  }
  fpga::DesignResources resources;
  resources.bram_halves = plan.total.halves();
  resources.max_stage_blocks36eq = plan.max_stage_blocks36eq;
  resources.pipelines = 1;
  const fpga::DeviceSpec device = fpga::DeviceSpec::xc6vlx760();
  const units::Megahertz freq = fpga::achievable_fmax_mhz(
      device, fpga::SpeedGrade::kMinus2, resources);
  out.freq_mhz = freq.value();
  out.logic_mw = fpga::XpeTables::logic_power_w(fpga::SpeedGrade::kMinus2,
                                                stages, freq)
                     .value() *
                 1e3;
  out.bram_mw =
      plan.total.power_w(fpga::SpeedGrade::kMinus2, freq).value() * 1e3;
  return out;
}

}  // namespace

int main() {
  using namespace vr;
  const trie::NodeEncoding enc;

  // IPv4 baseline engine (the paper's configuration).
  const net::SyntheticTableGenerator gen4(net::TableProfile::edge_default());
  const net::RoutingTable table4 = gen4.generate(1);
  const trie::UnibitTrie trie4 = trie::UnibitTrie(table4).leaf_pushed();
  const trie::TrieStats stats4 = trie::compute_stats(trie4);
  std::vector<std::uint64_t> bits4;
  for (std::size_t l = 0; l < stats4.nodes_per_level.size(); ++l) {
    bits4.push_back(stats4.internal_per_level[l] * enc.internal_word_bits() +
                    stats4.leaves_per_level[l] * enc.leaf_word_bits(1));
  }
  const EngineNumbers v4 = evaluate(bits4, stats4.total_nodes, 28);

  // IPv6 engine: same prefix count, /64-deep table, 64-stage pipeline.
  ipv6::TableProfile6 profile6;
  const ipv6::SyntheticTableGenerator6 gen6(profile6);
  const ipv6::RoutingTable6 table6 = gen6.generate(1);
  const trie::UnibitTrie trie6 = trie::UnibitTrie(table6).leaf_pushed();
  const trie::TrieStats stats6 = trie::compute_stats(trie6);
  std::vector<std::uint64_t> bits6;
  for (std::size_t l = 0; l < stats6.nodes_per_level.size(); ++l) {
    bits6.push_back(stats6.internal_per_level[l] * enc.internal_word_bits() +
                    stats6.leaves_per_level[l] * enc.leaf_word_bits(1));
  }
  const EngineNumbers v6 = evaluate(bits6, stats6.total_nodes, 64);

  TextTable out("IPv4 vs IPv6 lookup engine (3725 prefixes, grade -2)");
  out.set_header({"quantity", "IPv4 (N=28)", "IPv6 (N=64)", "ratio"});
  auto row = [&](const char* name, double a, double b, int precision) {
    out.add_row({name, TextTable::num(a, precision),
                 TextTable::num(b, precision),
                 TextTable::num(b / a, 2)});
  };
  row("pipeline stages", static_cast<double>(v4.stages),
      static_cast<double>(v6.stages), 0);
  row("trie nodes", static_cast<double>(v4.nodes),
      static_cast<double>(v6.nodes), 0);
  row("memory Kb", v4.memory_kb, v6.memory_kb, 0);
  row("clock MHz", v4.freq_mhz, v6.freq_mhz, 1);
  row("logic mW", v4.logic_mw, v6.logic_mw, 2);
  row("BRAM mW", v4.bram_mw, v6.bram_mw, 2);
  row("dynamic mW", v4.logic_mw + v4.bram_mw, v6.logic_mw + v6.bram_mw, 2);
  vr::bench::emit(out);

  std::cout << "The IPv6 engine needs ~2.3x the stages and more trie\n"
               "memory, but the dominant cost is still the device's\n"
               "leakage -- so virtualization's K-fold static-power saving\n"
               "carries over unchanged to IPv6 deployments.\n";
  return 0;
}
