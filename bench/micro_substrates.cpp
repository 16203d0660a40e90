// google-benchmark microbenchmarks of the substrates themselves: trie
// construction, leaf pushing, longest-prefix lookup, K-way structural
// merge, cycle-level pipeline simulation throughput and the end-to-end
// analytical estimate. These measure this library's software performance
// (not the modelled hardware).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/estimator.hpp"
#include "dataplane/full_router.hpp"
#include "netbase/table_gen.hpp"
#include "netbase/traffic.hpp"
#include "netbase/update_gen.hpp"
#include "pipeline/router.hpp"
#include "tcam/tcam.hpp"
#include "trie/flat_multibit_trie.hpp"
#include "trie/updatable_trie.hpp"
#include "virt/merged_trie.hpp"
#include "virt/table_set_gen.hpp"

namespace {

using namespace vr;

const net::RoutingTable& edge_table() {
  static const net::RoutingTable table =
      net::SyntheticTableGenerator(net::TableProfile::edge_default())
          .generate(1);
  return table;
}

void BM_TableGeneration(benchmark::State& state) {
  net::TableProfile profile;
  profile.prefix_count = static_cast<std::size_t>(state.range(0));
  const net::SyntheticTableGenerator gen(profile);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate(++seed));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TableGeneration)->Arg(1000)->Arg(3725);

void BM_TrieBuild(benchmark::State& state) {
  const net::RoutingTable& table = edge_table();
  for (auto _ : state) {
    trie::UnibitTrie trie(table);
    benchmark::DoNotOptimize(trie.node_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(table.size()));
}
BENCHMARK(BM_TrieBuild);

void BM_LeafPush(benchmark::State& state) {
  const trie::UnibitTrie trie{edge_table()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.leaf_pushed().node_count());
  }
}
BENCHMARK(BM_LeafPush);

void BM_TrieLookup(benchmark::State& state) {
  const trie::UnibitTrie trie{edge_table()};
  Rng rng(7);
  std::vector<net::Ipv4> addrs;
  for (int i = 0; i < 4096; ++i) {
    addrs.emplace_back(static_cast<std::uint32_t>(rng.next_u64()));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.lookup(addrs[i++ & 4095]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TrieLookup);

void BM_KWayMerge(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  virt::TableSetConfig config;
  config.profile.prefix_count = 1000;
  const virt::CorrelatedTableSetGenerator gen(config);
  const virt::TableSet set = gen.generate(k, 0.4, 11);
  std::vector<trie::UnibitTrie> tries;
  for (const auto& table : set.tables) {
    tries.push_back(trie::UnibitTrie(table).leaf_pushed());
  }
  std::vector<const trie::UnibitTrie*> ptrs;
  for (const auto& t : tries) ptrs.push_back(&t);
  for (auto _ : state) {
    virt::MergedTrie merged{std::span<const trie::UnibitTrie* const>(ptrs)};
    benchmark::DoNotOptimize(merged.node_count());
  }
}
BENCHMARK(BM_KWayMerge)->Arg(2)->Arg(8)->Arg(15);

void BM_PipelineSimulation(benchmark::State& state) {
  const trie::UnibitTrie trie = trie::UnibitTrie(edge_table()).leaf_pushed();
  net::TrafficConfig config;
  config.cycles = 10000;
  const net::TrafficGenerator traffic(config, {&edge_table()});
  const auto trace = traffic.generate(13);
  for (auto _ : state) {
    std::vector<pipeline::TrieView> views{pipeline::TrieView(trie)};
    pipeline::SeparateRouter router(views, 28);
    benchmark::DoNotOptimize(run_trace(router, trace).results.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_PipelineSimulation);

void BM_MultibitLookup(benchmark::State& state) {
  const trie::FlatMultibitTrie trie(edge_table(),
                                    static_cast<unsigned>(state.range(0)));
  Rng rng(19);
  std::vector<net::Ipv4> addrs;
  for (int i = 0; i < 4096; ++i) {
    addrs.emplace_back(static_cast<std::uint32_t>(rng.next_u64()));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.lookup(addrs[i++ & 4095]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MultibitLookup)->Arg(1)->Arg(4)->Arg(8);

void BM_TcamSearch(benchmark::State& state) {
  const tcam::FlatTcam flat(edge_table());
  Rng rng(23);
  std::vector<net::Ipv4> addrs;
  for (int i = 0; i < 1024; ++i) {
    addrs.emplace_back(static_cast<std::uint32_t>(rng.next_u64()));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(flat.search(addrs[i++ & 1023]));
  }
}
BENCHMARK(BM_TcamSearch);

void BM_IncrementalUpdate(benchmark::State& state) {
  const net::RoutingTable& base = edge_table();
  net::UpdateStreamConfig config;
  config.update_count = 2000;
  const net::UpdateStreamGenerator gen(config);
  const auto stream = gen.generate(base, 31);
  trie::UpdatableTrie trie(base);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.apply(stream[i]).words_written);
    i = (i + 1) % stream.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IncrementalUpdate);

void BM_ChecksumAndTtlEdit(benchmark::State& state) {
  net::Ipv4Header header;
  header.source = net::Ipv4(192, 0, 2, 1);
  header.destination = net::Ipv4(198, 51, 100, 2);
  header.ttl = 255;
  header.checksum = header.compute_checksum();
  for (auto _ : state) {
    if (header.ttl <= 2) {
      header.ttl = 255;
      header.checksum = header.compute_checksum();
    }
    benchmark::DoNotOptimize(header.decrement_ttl());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChecksumAndTtlEdit);

void BM_FullRouterDataplane(benchmark::State& state) {
  static const net::RoutingTable& table = edge_table();
  static const trie::UnibitTrie trie =
      trie::UnibitTrie(table).leaf_pushed();
  dataplane::FrameGenConfig config;
  config.traffic.cycles = 4000;
  config.traffic.load = 0.8;
  const dataplane::FrameGenerator gen(config, {&table});
  const auto frames = gen.generate(37);
  dataplane::FullRouterConfig router_config;
  router_config.scheduler.vn_count = 1;
  for (auto _ : state) {
    std::vector<pipeline::TrieView> views{pipeline::TrieView(trie)};
    pipeline::SeparateRouter lookup(views, 28);
    benchmark::DoNotOptimize(
        run_full_router(lookup, frames, router_config).egress.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frames.size()));
}
BENCHMARK(BM_FullRouterDataplane);

void BM_AnalyticalEstimate(benchmark::State& state) {
  const core::PowerEstimator estimator{fpga::DeviceSpec::xc6vlx760()};
  core::Scenario scenario;
  scenario.scheme = power::Scheme::kMerged;
  scenario.vn_count = 8;
  const core::Workload workload = core::realize_workload(scenario);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimator.estimate(scenario, workload).power.total_w());
  }
}
BENCHMARK(BM_AnalyticalEstimate);

}  // namespace

BENCHMARK_MAIN();
