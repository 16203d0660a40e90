// Verification of the flat stride-k multibit lookup image: hand-checked
// controlled prefix expansion and the structural tradeoffs the stride
// ablation prices (levels, nodes, memory), then differential checks that
// every consumer path (scalar lookup, prefetch-pipelined batch, the
// pipeline simulator's stride-aware TrieView) returns exactly what the
// UnibitTrie oracle returns over the same table, for every stride. Also
// pins the NodeIndex narrowing guard of the flat images.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <span>

#include "common/rng.hpp"
#include "netbase/table_gen.hpp"
#include "pipeline/lookup_engine.hpp"
#include "trie/flat_multibit_trie.hpp"
#include "trie/unibit_trie.hpp"
#include "trie/updatable_trie.hpp"

namespace vr::trie {
namespace {

using net::Ipv4;
using net::Packet;
using net::Prefix;
using net::RoutingTable;

// Force a >1 pipelining window for the whole binary (before any lookup
// caches the distance): the unibit default of 1 would leave the
// lane-interleaved path of FlatTrie untested, and these differential
// tests are exactly where that path must prove itself.
const bool kForcePipelinedBatches = [] {
  ::setenv("VR_PREFETCH_DIST", "6", 1);
  return true;
}();

RoutingTable gen_table(std::uint64_t seed, std::size_t prefixes = 500) {
  net::TableProfile profile;
  profile.prefix_count = prefixes;
  return net::SyntheticTableGenerator(profile).generate(seed);
}

std::vector<Ipv4> random_addrs(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Ipv4> addrs;
  addrs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    addrs.emplace_back(static_cast<std::uint32_t>(rng.next_u64()));
  }
  return addrs;
}

TEST(FlatMultibitTrieTest, RejectsBadStride) {
  const RoutingTable table = gen_table(1, 50);
  EXPECT_DEATH(FlatMultibitTrie(table, 0), "stride");
  EXPECT_DEATH(FlatMultibitTrie(table, 3), "stride");
  EXPECT_DEATH(FlatMultibitTrie(table, 16), "stride");
}

TEST(FlatMultibitTrieTest, HandCheckedStride4) {
  RoutingTable table;
  table.add(*Prefix::parse("0.0.0.0/0"), 7);     // default route
  table.add(*Prefix::parse("10.0.0.0/8"), 3);    // two full strides
  table.add(*Prefix::parse("10.128.0.0/9"), 4);  // expands within level 2
  const FlatMultibitTrie flat(table, 4);
  EXPECT_EQ(flat.stride(), 4u);
  EXPECT_EQ(flat.width(), 16u);
  EXPECT_EQ(flat.max_level_count(), 8u);
  EXPECT_EQ(flat.lookup(Ipv4(10, 1, 1, 1)), 3);
  EXPECT_EQ(flat.lookup(Ipv4(10, 200, 1, 1)), 4);
  EXPECT_EQ(flat.lookup(Ipv4(200, 1, 1, 1)), 7);
}

TEST(FlatMultibitTrieTest, EmptyTableHasNoRoutes) {
  const RoutingTable table;
  const FlatMultibitTrie flat(table, 8);
  EXPECT_EQ(flat.node_count(), 1u);  // just the root
  EXPECT_EQ(flat.lookup(Ipv4(1, 2, 3, 4)), std::nullopt);
  const std::vector<Ipv4> addrs = random_addrs(64, 3);
  for (const net::NextHop hop : flat.lookup_batch(addrs)) {
    EXPECT_EQ(hop, net::kNoRoute);
  }
}

TEST(FlatMultibitTrieTest, HostRouteExactMatch) {
  RoutingTable table;
  table.add(*Prefix::parse("192.168.1.77/32"), 9);
  table.add(*Prefix::parse("192.168.1.76/32"), 5);
  for (const unsigned stride : {1u, 2u, 4u, 8u}) {
    const FlatMultibitTrie flat(table, stride);
    EXPECT_EQ(flat.lookup(Ipv4(192, 168, 1, 77)), 9) << stride;
    EXPECT_EQ(flat.lookup(Ipv4(192, 168, 1, 76)), 5) << stride;
    EXPECT_EQ(flat.lookup(Ipv4(192, 168, 1, 78)), std::nullopt) << stride;
    EXPECT_EQ(flat.level_count(), flat.max_level_count()) << stride;
  }
}

// Controlled-prefix-expansion semantics and the level/node/memory shape
// of stride-k tries.

// The K-way merged and control-plane builds share the single-table
// build's stride guard.
TEST(MultibitTrieTest, RejectsBadStride) {
  const RoutingTable table = gen_table(1, 50);
  const RoutingTable* tables[] = {&table, &table};
  const UpdatableTrie control(table);
  for (const unsigned stride : {0u, 3u, 16u}) {
    EXPECT_DEATH(FlatMultibitTrie(std::span(tables), stride), "stride");
    EXPECT_DEATH(FlatMultibitTrie(control, stride), "stride");
  }
}

TEST(MultibitTrieTest, HandCheckedStride2) {
  RoutingTable table;
  table.add(*Prefix::parse("0.0.0.0/1"), 1);    // expands to entries 00,01
  table.add(*Prefix::parse("192.0.0.0/2"), 2);  // entry 11
  const FlatMultibitTrie trie(table, 2);
  EXPECT_EQ(trie.node_count(), 1u);  // everything fits in the root
  EXPECT_EQ(trie.lookup(Ipv4(0x00, 0, 0, 0)), 1);
  EXPECT_EQ(trie.lookup(Ipv4(0x40, 0, 0, 0)), 1);
  EXPECT_EQ(trie.lookup(Ipv4(0x80, 0, 0, 0)), std::nullopt);  // 10
  EXPECT_EQ(trie.lookup(Ipv4(0xc0, 0, 0, 0)), 2);
}

TEST(MultibitTrieTest, ExpansionPrefersLongerPrefix) {
  RoutingTable table;
  table.add(*Prefix::parse("0.0.0.0/1"), 1);  // covers 00 and 01 at stride 2
  table.add(*Prefix::parse("0.0.0.0/2"), 2);  // covers 00 exactly
  const FlatMultibitTrie trie(table, 2);
  EXPECT_EQ(trie.lookup(Ipv4(0x00, 0, 0, 0)), 2);
  EXPECT_EQ(trie.lookup(Ipv4(0x40, 0, 0, 0)), 1);
}

TEST(MultibitTrieTest, DefaultRouteCoversEverything) {
  RoutingTable table;
  table.add(*Prefix::parse("0.0.0.0/0"), 7);
  table.add(*Prefix::parse("10.0.0.0/8"), 3);
  const FlatMultibitTrie trie(table, 4);
  EXPECT_EQ(trie.lookup(Ipv4(10, 1, 1, 1)), 3);
  EXPECT_EQ(trie.lookup(Ipv4(200, 1, 1, 1)), 7);
}

class MultibitLookupProperty
    : public ::testing::TestWithParam<unsigned /*stride*/> {};

TEST_P(MultibitLookupProperty, MatchesUnibitAndOracle) {
  const RoutingTable table = gen_table(GetParam() + 10);
  const FlatMultibitTrie multibit(table, GetParam());
  const UnibitTrie unibit(table);
  Rng rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    const auto expected = unibit.lookup(addr);
    EXPECT_EQ(multibit.lookup(addr), expected);
    if (i % 10 == 0) {
      EXPECT_EQ(multibit.lookup(addr), table.lookup(addr));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strides, MultibitLookupProperty,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(MultibitTrieTest, LevelCountShrinksWithStride) {
  const RoutingTable table = gen_table(20);
  std::size_t prev = 64;
  for (const unsigned stride : {1u, 2u, 4u, 8u}) {
    const FlatMultibitTrie trie(table, stride);
    EXPECT_LT(trie.level_count(), prev);
    EXPECT_LE(trie.level_count(), 32u / stride);
    prev = trie.level_count();
  }
}

TEST(MultibitTrieTest, MemoryGrowsWithStride) {
  const RoutingTable table = gen_table(21);
  std::uint64_t prev = 0;
  for (const unsigned stride : {1u, 2u, 4u, 8u}) {
    const FlatMultibitTrie trie(table, stride);
    const std::uint64_t bits = trie.memory_bits();
    if (stride >= 4) {
      EXPECT_GT(bits, prev);  // expansion dominates beyond stride 2
    }
    prev = bits;
  }
}

TEST(MultibitTrieTest, LevelMemorySumsToTotal) {
  const RoutingTable table = gen_table(22);
  const FlatMultibitTrie trie(table, 4);
  std::uint64_t sum = 0;
  for (const std::uint64_t bits : trie.level_memory_bits()) sum += bits;
  EXPECT_EQ(sum, trie.memory_bits());
  const std::vector<std::size_t> counts = trie.level_node_counts();
  EXPECT_EQ(counts.size(), trie.level_count());
  std::size_t node_sum = 0;
  for (const std::size_t n : counts) node_sum += n;
  EXPECT_EQ(node_sum, trie.node_count());
}

TEST(MultibitTrieTest, Stride1MatchesUnibitNodeCount) {
  // A stride-1 multibit trie without leaf pushing has one 2-entry node
  // per INTERNAL unibit node (leaves collapse into their parents'
  // entries).
  RoutingTable table;
  table.add(*Prefix::parse("10.0.0.0/8"), 1);
  const FlatMultibitTrie multibit(table, 1);
  EXPECT_EQ(multibit.node_count(), 8u);  // internal chain of the /8 path
}

class FlatMultibitDifferential
    : public ::testing::TestWithParam<unsigned /*stride*/> {};

TEST_P(FlatMultibitDifferential, ScalarMatchesUnibitOracle) {
  const unsigned stride = GetParam();
  const RoutingTable table = gen_table(stride + 40);
  const FlatMultibitTrie flat(table, stride);
  const UnibitTrie oracle(table);
  Rng rng(stride);
  for (int i = 0; i < 3000; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    EXPECT_EQ(flat.lookup(addr), oracle.lookup(addr));
  }
}

TEST_P(FlatMultibitDifferential, BatchMatchesScalar) {
  const unsigned stride = GetParam();
  const RoutingTable table = gen_table(stride + 41);
  const FlatMultibitTrie flat(table, stride);
  // Odd batch sizes stress the lane refill/compaction logic (the window
  // never divides these evenly); 0 and 1 hit the degenerate paths.
  for (const std::size_t size : {0u, 1u, 5u, 6u, 7u, 257u, 1000u}) {
    const std::vector<Ipv4> addrs = random_addrs(size, stride * 100 + size);
    const std::vector<net::NextHop> batch = flat.lookup_batch(addrs);
    ASSERT_EQ(batch.size(), size);
    for (std::size_t i = 0; i < size; ++i) {
      const auto scalar = flat.lookup(addrs[i]);
      EXPECT_EQ(batch[i], scalar.value_or(net::kNoRoute)) << i;
    }
  }
}

TEST_P(FlatMultibitDifferential, MergedImageMatchesPerVnOracles) {
  const unsigned stride = GetParam();
  std::vector<RoutingTable> tables;
  std::vector<const RoutingTable*> ptrs;
  std::vector<UnibitTrie> oracles;
  for (std::uint64_t v = 0; v < 3; ++v) {
    tables.push_back(gen_table(60 + v, 300));
  }
  for (const RoutingTable& t : tables) {
    ptrs.push_back(&t);
    oracles.emplace_back(t);
  }
  const FlatMultibitTrie merged(ptrs, stride);
  EXPECT_EQ(merged.vn_count(), 3u);

  Rng rng(stride + 13);
  std::vector<Packet> packets;
  for (int i = 0; i < 1500; ++i) {
    Packet p;
    p.addr = Ipv4(static_cast<std::uint32_t>(rng.next_u64()));
    p.vnid = static_cast<net::VnId>(i % 3);
    packets.push_back(p);
  }
  const std::vector<net::NextHop> batch = merged.lookup_batch(packets);
  ASSERT_EQ(batch.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const auto expected = oracles[packets[i].vnid].lookup(packets[i].addr);
    EXPECT_EQ(merged.lookup(packets[i].addr, packets[i].vnid), expected);
    EXPECT_EQ(batch[i], expected.value_or(net::kNoRoute)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Strides, FlatMultibitDifferential,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(FlatMultibitPipelineTest, EngineMatchesScalarLookups) {
  const RoutingTable table = gen_table(77);
  const auto image =
      std::make_shared<const FlatMultibitTrie>(table, /*stride=*/8);
  const pipeline::TrieView view{image};
  EXPECT_TRUE(view.is_multibit());
  EXPECT_EQ(view.stride(), 8u);
  EXPECT_EQ(view.max_levels(), 4u);
  pipeline::LookupEngine engine(view, view.level_count());

  const std::vector<Ipv4> addrs = random_addrs(200, 5);
  std::vector<pipeline::LookupResult> results;
  std::size_t offered = 0;
  while (offered < addrs.size() || !engine.drained()) {
    if (offered < addrs.size() &&
        engine.offer(Packet{addrs[offered], 0})) {
      ++offered;
    }
    engine.tick(&results);
  }
  ASSERT_EQ(results.size(), addrs.size());
  for (const pipeline::LookupResult& result : results) {
    EXPECT_EQ(result.next_hop, image->lookup(result.packet.addr));
  }
}

TEST(FlatMultibitPipelineTest, RejectsTooShallowPipeline) {
  const RoutingTable table = gen_table(78);
  const auto image =
      std::make_shared<const FlatMultibitTrie>(table, /*stride=*/2);
  const pipeline::TrieView view{image};
  ASSERT_GE(view.level_count(), 2u);
  EXPECT_THROW(pipeline::LookupEngine(view, view.level_count() - 1),
               CapacityError);
}

TEST(NodeIndexGuardTest, ChecksFlattenerNarrowing) {
  EXPECT_EQ(checked_node_index(0, "mock flattener"), 0u);
  EXPECT_EQ(checked_node_index(kMaxNodeCount - 1, "mock flattener"),
            kNullNode - 1u);
  // A (mocked) node count at or past the NodeIndex ceiling must fail
  // loudly instead of silently wrapping into a valid-looking index.
  EXPECT_DEATH((void)checked_node_index(kMaxNodeCount, "mock flattener"),
               "mock flattener");
  EXPECT_DEATH((void)checked_node_index(kMaxNodeCount + 1, "mock flattener"),
               "node count exceeds");
}

}  // namespace
}  // namespace vr::trie
