// Ablation: trie stride (the [16]-taxonomy design axis). A stride-k
// pipeline has ceil(32/k) stages — less logic power per lookup — but
// controlled prefix expansion multiplies memory (hence BRAM power). This
// sweep evaluates strides 1/2/4/8 on the paper's edge table with the
// paper's power coefficients, showing why the paper's uni-bit, 28-stage
// design sits where it does.
#include "bench_common.hpp"
#include "fpga/freq_model.hpp"
#include "fpga/xpe_tables.hpp"
#include "netbase/table_gen.hpp"
#include "trie/flat_multibit_trie.hpp"

int main() {
  using namespace vr;
  const net::SyntheticTableGenerator gen(net::TableProfile::edge_default());
  const net::RoutingTable table = gen.generate(1);
  const fpga::DeviceSpec device = fpga::DeviceSpec::xc6vlx760();

  TextTable out("Stride ablation (grade -2, 3725-prefix edge table)");
  out.set_header({"stride", "stages", "nodes", "memory Kb", "clock MHz",
                  "logic mW", "BRAM mW", "dynamic mW", "Gbps", "mW/Gbps*"});
  for (const unsigned stride : {1u, 2u, 4u, 8u}) {
    const trie::FlatMultibitTrie trie(table, stride);
    const auto level_bits = trie.level_memory_bits();
    const fpga::StageBramPlan plan =
        fpga::plan_stage_bram(level_bits, fpga::BramPolicy::kMixed);
    fpga::DesignResources resources;
    resources.bram_halves = plan.total.halves();
    resources.max_stage_blocks36eq = plan.max_stage_blocks36eq;
    resources.pipelines = 1;
    const units::Megahertz freq = fpga::achievable_fmax_mhz(
        device, fpga::SpeedGrade::kMinus2, resources);
    const double logic_w =
        fpga::XpeTables::logic_power_w(fpga::SpeedGrade::kMinus2,
                                       trie.level_count(), freq)
            .value();
    const double bram_w =
        plan.total.power_w(fpga::SpeedGrade::kMinus2, freq).value();
    const double gbps =
        units::lookup_throughput(freq, units::kMinPacketBytes).value();
    out.add_row(
        {std::to_string(stride), std::to_string(trie.level_count()),
         std::to_string(trie.node_count()),
         TextTable::num(static_cast<double>(trie.memory_bits()) / 1024.0,
                        0),
         TextTable::num(freq.value(), 1), TextTable::num(logic_w * 1e3, 2),
         TextTable::num(bram_w * 1e3, 2),
         TextTable::num((logic_w + bram_w) * 1e3, 2),
         TextTable::num(gbps, 1),
         TextTable::num((logic_w + bram_w) * 1e3 / gbps, 3)});
  }
  vr::bench::emit(out);
  std::cout << "* dynamic power only -- leakage is scheme-level, not a\n"
               "  stride property. Larger strides trade fewer stages\n"
               "  (less logic power) for expanded memory (more BRAM\n"
               "  power); the crossover justifies small-stride pipelines\n"
               "  for edge tables.\n";
  return 0;
}
