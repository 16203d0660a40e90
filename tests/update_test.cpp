#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "netbase/table_gen.hpp"
#include "netbase/update_gen.hpp"
#include "power/update_power.hpp"
#include "trie/updatable_trie.hpp"
#include "virt/merged_trie.hpp"
#include "virt/updatable_merged.hpp"

namespace vr {
namespace {

using net::Ipv4;
using net::Prefix;
using net::Route;
using net::RouteUpdate;
using net::RoutingTable;
using trie::UpdatableTrie;
using virt::UpdatableMergedTrie;

RoutingTable gen_table(std::uint64_t seed, std::size_t prefixes = 400) {
  net::TableProfile profile;
  profile.prefix_count = prefixes;
  return net::SyntheticTableGenerator(profile).generate(seed);
}

// ---------------------------------------------------------- UpdatableTrie --

TEST(UpdatableTrieTest, FreshBuildMatchesUnibitTrie) {
  const RoutingTable table = gen_table(1);
  const UpdatableTrie dynamic(table);
  const trie::UnibitTrie reference(table);
  EXPECT_EQ(dynamic.node_count(), reference.node_count());
  EXPECT_EQ(dynamic.route_count(), table.size());
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    EXPECT_EQ(dynamic.lookup(addr), reference.lookup(addr));
  }
}

TEST(UpdatableTrieTest, AnnounceCreatesPathOnce) {
  UpdatableTrie trie;
  const auto cost = trie.announce({*Prefix::parse("192.0.2.0/24"), 7});
  EXPECT_EQ(cost.nodes_created, 24u);
  EXPECT_EQ(cost.max_depth_touched, 24u);
  EXPECT_EQ(trie.node_count(), 25u);  // root + 24
  // Re-announcing the identical route writes nothing.
  const auto repeat = trie.announce({*Prefix::parse("192.0.2.0/24"), 7});
  EXPECT_EQ(repeat.nodes_created, 0u);
  EXPECT_EQ(repeat.words_written, 0u);
}

TEST(UpdatableTrieTest, PathChangeWritesOneWord) {
  UpdatableTrie trie;
  trie.announce({*Prefix::parse("10.0.0.0/8"), 1});
  const auto cost = trie.announce({*Prefix::parse("10.0.0.0/8"), 2});
  EXPECT_EQ(cost.nodes_created, 0u);
  EXPECT_EQ(cost.words_written, 1u);
  EXPECT_EQ(trie.lookup(Ipv4(10, 1, 1, 1)), 2);
  EXPECT_EQ(trie.route_count(), 1u);
}

TEST(UpdatableTrieTest, WithdrawPrunesDeadBranch) {
  UpdatableTrie trie;
  trie.announce({*Prefix::parse("10.0.0.0/8"), 1});
  trie.announce({*Prefix::parse("10.32.0.0/11"), 2});
  const std::size_t before = trie.node_count();
  const auto cost = trie.withdraw(*Prefix::parse("10.32.0.0/11"));
  EXPECT_EQ(cost.nodes_removed, 3u);  // depths 9..11 below the /8 node
  EXPECT_EQ(trie.node_count(), before - 3);
  EXPECT_EQ(trie.lookup(Ipv4(10, 32, 0, 1)), 1);  // /8 still covers
}

TEST(UpdatableTrieTest, WithdrawKeepsSharedPath) {
  UpdatableTrie trie;
  trie.announce({*Prefix::parse("10.0.0.0/8"), 1});
  trie.announce({*Prefix::parse("10.0.0.0/16"), 2});
  trie.withdraw(*Prefix::parse("10.0.0.0/16"));
  EXPECT_EQ(trie.node_count(), 9u);  // root + 8 (the /8 path)
  EXPECT_EQ(trie.lookup(Ipv4(10, 0, 5, 5)), 1);
}

TEST(UpdatableTrieTest, WithdrawMissingIsFreeNoOp) {
  UpdatableTrie trie;
  trie.announce({*Prefix::parse("10.0.0.0/8"), 1});
  const auto cost = trie.withdraw(*Prefix::parse("11.0.0.0/8"));
  EXPECT_EQ(cost.words_written, 0u);
  EXPECT_EQ(cost.nodes_removed, 0u);
  EXPECT_EQ(trie.route_count(), 1u);
}

TEST(UpdatableTrieTest, WithdrawInternalRouteKeepsChildren) {
  UpdatableTrie trie;
  trie.announce({*Prefix::parse("10.0.0.0/8"), 1});
  trie.announce({*Prefix::parse("10.1.0.0/16"), 2});
  trie.withdraw(*Prefix::parse("10.0.0.0/8"));
  EXPECT_EQ(trie.lookup(Ipv4(10, 1, 0, 1)), 2);
  EXPECT_EQ(trie.lookup(Ipv4(10, 2, 0, 1)), std::nullopt);
}

TEST(UpdatableTrieTest, FreedSlotsAreReused) {
  UpdatableTrie trie;
  trie.announce({*Prefix::parse("10.0.0.0/8"), 1});
  const std::size_t pool_after_first = trie.pool_size();
  trie.withdraw(*Prefix::parse("10.0.0.0/8"));
  trie.announce({*Prefix::parse("192.0.0.0/8"), 2});
  EXPECT_EQ(trie.pool_size(), pool_after_first);  // recycled, not grown
}

TEST(UpdatableTrieTest, SlashZeroRoute) {
  UpdatableTrie trie;
  trie.announce({*Prefix::parse("0.0.0.0/0"), 9});
  EXPECT_EQ(trie.node_count(), 1u);
  EXPECT_EQ(trie.lookup(Ipv4(200, 1, 2, 3)), 9);
  trie.withdraw(*Prefix::parse("0.0.0.0/0"));
  EXPECT_EQ(trie.lookup(Ipv4(200, 1, 2, 3)), std::nullopt);
  EXPECT_EQ(trie.node_count(), 1u);  // root never pruned
}

TEST(UpdatableTrieTest, NodesPerDepthTracksLiveNodes) {
  const RoutingTable table = gen_table(2);
  UpdatableTrie trie(table);
  std::size_t total = 0;
  for (const std::size_t n : trie.nodes_per_depth()) total += n;
  EXPECT_EQ(total, trie.node_count());
}

TEST(UpdatableTrieTest, ToTableRoundTrips) {
  const RoutingTable table = gen_table(3);
  UpdatableTrie trie(table);
  EXPECT_EQ(trie.to_table(), table);
}

class UpdateStreamProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(UpdateStreamProperty, TrieTracksOracleThroughStream) {
  const RoutingTable base = gen_table(GetParam(), 300);
  net::UpdateStreamConfig config;
  config.update_count = 400;
  config.profile.prefix_count = 300;
  const net::UpdateStreamGenerator gen(config);
  const auto stream = gen.generate(base, GetParam() ^ 0xbeef);

  UpdatableTrie trie(base);
  RoutingTable oracle = base;
  Rng rng(GetParam());
  for (const RouteUpdate& update : stream) {
    trie.apply(update);
    if (update.kind == RouteUpdate::Kind::kAnnounce) {
      oracle.add(update.route);
    } else {
      oracle.remove(update.route.prefix);
    }
    // Spot-check lookups as the stream progresses.
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    EXPECT_EQ(trie.lookup(addr), oracle.lookup(addr));
  }
  EXPECT_EQ(trie.to_table(), oracle);
  EXPECT_EQ(trie.route_count(), oracle.size());
  // The incrementally maintained trie is structurally identical to a
  // fresh build of the final table.
  EXPECT_EQ(trie.node_count(), trie::UnibitTrie(oracle).node_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateStreamProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// -------------------------------------------------------- update streams --

TEST(UpdateStreamGenTest, DeterministicAndSized) {
  const RoutingTable base = gen_table(7, 200);
  net::UpdateStreamConfig config;
  config.update_count = 250;
  config.profile.prefix_count = 200;
  const net::UpdateStreamGenerator gen(config);
  const auto a = gen.generate(base, 1);
  const auto b = gen.generate(base, 1);
  EXPECT_EQ(a.size(), 250u);
  EXPECT_EQ(a, b);
}

TEST(UpdateStreamGenTest, WithdrawsAlwaysTargetInstalledRoutes) {
  const RoutingTable base = gen_table(8, 200);
  net::UpdateStreamConfig config;
  config.update_count = 300;
  config.profile.prefix_count = 200;
  const net::UpdateStreamGenerator gen(config);
  RoutingTable live = base;
  for (const RouteUpdate& update : gen.generate(base, 2)) {
    if (update.kind == RouteUpdate::Kind::kWithdraw) {
      EXPECT_TRUE(live.contains(update.route.prefix));
      live.remove(update.route.prefix);
    } else {
      live.add(update.route);
    }
  }
}

TEST(UpdateStreamGenTest, MixFollowsWeights) {
  const RoutingTable base = gen_table(9, 300);
  net::UpdateStreamConfig config;
  config.update_count = 2000;
  config.withdraw_weight = 0.0;
  config.announce_new_weight = 0.0;
  config.reannounce_weight = 1.0;
  config.profile.prefix_count = 300;
  const net::UpdateStreamGenerator gen(config);
  for (const RouteUpdate& update : gen.generate(base, 3)) {
    EXPECT_EQ(update.kind, RouteUpdate::Kind::kAnnounce);
    EXPECT_TRUE(base.contains(update.route.prefix) ||
                true);  // re-announces may chain; kind check is the point
  }
}

// Streams are part of every seeded experiment's input: pin their bytes.
TEST(UpdateStreamGenTest, StreamsArePinned) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    net::UpdateStreamConfig config;
    config.update_count = 500;
    const net::UpdateStreamGenerator gen(config);
    for (const RouteUpdate& update :
         gen.generate(gen_table(seed, 300), seed + 10)) {
      mix(static_cast<std::uint64_t>(update.kind));
      mix(update.route.prefix.address().value());
      mix(update.route.prefix.length());
      mix(update.route.next_hop);
    }
  }
  EXPECT_EQ(hash, 0x111adcf191f98f76ull);
}

// A mix that can no longer add an update fails loudly instead of spinning.
TEST(UpdateStreamGenTest, ExhaustedPoolAndDrainedTableStall) {
  const RoutingTable base = gen_table(10, 20);
  net::UpdateStreamConfig config;
  config.update_count = 1000;  // far beyond 20 routes + a 10-prefix pool
  config.withdraw_weight = 1.0;
  config.announce_new_weight = 1.0;
  config.reannounce_weight = 0.0;
  config.profile.prefix_count = 10;
  const net::UpdateStreamGenerator gen(config);
  EXPECT_DEATH((void)gen.generate(base, 4), "stalled");
}

TEST(UpdateStreamGenTest, ReannounceWithOneNextHopStalls) {
  net::UpdateStreamConfig config;
  config.update_count = 10;
  config.withdraw_weight = 0.0;
  config.announce_new_weight = 0.0;
  config.reannounce_weight = 1.0;
  config.profile.prefix_count = 50;
  config.profile.next_hop_count = 1;
  const RoutingTable base =
      net::SyntheticTableGenerator(config.profile).generate(11);
  const net::UpdateStreamGenerator gen(config);
  EXPECT_DEATH((void)gen.generate(base, 5), "stalled");
}

// --------------------------------------------------- UpdatableMergedTrie --

class MergedUpdateFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    for (std::uint64_t v = 0; v < kVns; ++v) {
      tables_.push_back(gen_table(20 + v, 250));
    }
    for (const auto& t : tables_) ptrs_.push_back(&t);
  }

  static constexpr std::size_t kVns = 4;
  std::vector<RoutingTable> tables_;
  std::vector<const RoutingTable*> ptrs_;
};

TEST_F(MergedUpdateFixture, FreshBuildMatchesStaticMerge) {
  const UpdatableMergedTrie dynamic{
      std::span<const RoutingTable* const>(ptrs_)};
  std::vector<trie::UnibitTrie> tries;
  for (const auto& t : tables_) tries.emplace_back(t);
  std::vector<const trie::UnibitTrie*> trie_ptrs;
  for (const auto& t : tries) trie_ptrs.push_back(&t);
  const virt::MergedTrie static_merge{
      std::span<const trie::UnibitTrie* const>(trie_ptrs)};
  EXPECT_EQ(dynamic.node_count(), static_merge.node_count());
  EXPECT_NEAR(dynamic.alpha_effective(),
              static_merge.stats().alpha_effective(kVns), 1e-12);
  for (net::VnId v = 0; v < kVns; ++v) {
    EXPECT_EQ(dynamic.present_count(v), tries[v].node_count());
  }
}

TEST_F(MergedUpdateFixture, LookupsMatchTables) {
  const UpdatableMergedTrie merged{
      std::span<const RoutingTable* const>(ptrs_)};
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    const auto vn = static_cast<net::VnId>(rng.next_below(kVns));
    EXPECT_EQ(merged.lookup(addr, vn), tables_[vn].lookup(addr));
  }
}

TEST_F(MergedUpdateFixture, PerVnStreamsTrackOracles) {
  UpdatableMergedTrie merged{std::span<const RoutingTable* const>(ptrs_)};
  std::vector<RoutingTable> oracles = tables_;
  net::UpdateStreamConfig config;
  config.update_count = 200;
  config.profile.prefix_count = 250;
  const net::UpdateStreamGenerator gen(config);
  Rng rng(6);
  for (net::VnId v = 0; v < kVns; ++v) {
    for (const RouteUpdate& update : gen.generate(oracles[v], 100 + v)) {
      merged.apply(v, update);
      if (update.kind == RouteUpdate::Kind::kAnnounce) {
        oracles[v].add(update.route);
      } else {
        oracles[v].remove(update.route.prefix);
      }
    }
  }
  for (net::VnId v = 0; v < kVns; ++v) {
    EXPECT_EQ(merged.table_of(v), oracles[v]) << "vn " << v;
    EXPECT_EQ(merged.route_count(v), oracles[v].size());
    for (int i = 0; i < 500; ++i) {
      const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
      EXPECT_EQ(merged.lookup(addr, v), oracles[v].lookup(addr));
    }
  }
  // Structure equals a fresh static merge of the final tables.
  std::vector<trie::UnibitTrie> tries;
  for (const auto& t : oracles) tries.emplace_back(t);
  std::vector<const trie::UnibitTrie*> trie_ptrs;
  for (const auto& t : tries) trie_ptrs.push_back(&t);
  const virt::MergedTrie rebuilt{
      std::span<const trie::UnibitTrie* const>(trie_ptrs)};
  EXPECT_EQ(merged.node_count(), rebuilt.node_count());
  EXPECT_NEAR(merged.alpha_effective(),
              rebuilt.stats().alpha_effective(kVns), 1e-12);
}

TEST_F(MergedUpdateFixture, WithdrawingSharedNodeKeepsOtherVns) {
  UpdatableMergedTrie merged{std::span<const RoutingTable* const>(ptrs_)};
  // Install the same prefix for two VNs, withdraw it from one.
  const Route route{*Prefix::parse("203.0.0.0/24"), 5};
  merged.announce(0, route);
  merged.announce(1, route);
  merged.withdraw(0, route.prefix);
  EXPECT_EQ(merged.lookup(Ipv4(203, 0, 0, 9), 0),
            tables_[0].lookup(Ipv4(203, 0, 0, 9)));
  EXPECT_EQ(merged.lookup(Ipv4(203, 0, 0, 9), 1), 5);
}

TEST_F(MergedUpdateFixture, SharedLeafVectorWritesCostOneWord) {
  UpdatableMergedTrie merged{std::span<const RoutingTable* const>(ptrs_)};
  const Route route{*Prefix::parse("198.51.100.0/24"), 3};
  const auto first = merged.announce(0, route);
  EXPECT_GT(first.nodes_created, 0u);
  // Second VN re-uses the whole path: one NHI-vector entry write only.
  const auto second = merged.announce(1, route);
  EXPECT_EQ(second.nodes_created, 0u);
  EXPECT_EQ(second.words_written, 1u);
}

TEST(UpdatableMergedTrieTest, RejectsTooManyVns) {
  std::vector<const RoutingTable*> many(65, nullptr);
  EXPECT_DEATH(UpdatableMergedTrie{std::span<const RoutingTable* const>(
                   many)},
               "1..64");
}

// ----------------------------------------------------- update power model --

TEST(UpdatePowerTest, BaselineRateIsNeutral) {
  EXPECT_DOUBLE_EQ(
      power::adjusted_bram_power_w(units::Watts{2.0}, 0.01).value(), 2.0);
}

TEST(UpdatePowerTest, PowerRisesWithWriteRate) {
  const double base =
      power::adjusted_bram_power_w(units::Watts{2.0}, 0.01).value();
  const double busy =
      power::adjusted_bram_power_w(units::Watts{2.0}, 0.5).value();
  EXPECT_GT(busy, base);
  EXPECT_NEAR(busy, 2.0 * (1.0 + 0.30 * 0.49), 1e-12);
}

TEST(UpdatePowerTest, SlotStealingReducesCapacity) {
  power::UpdateLoad load;
  load.updates_per_second = 1e6;
  load.words_per_update = 40.0;
  // 40e6 writes/s at 400 MHz = 10 % of slots.
  EXPECT_NEAR(load.write_slot_fraction(units::Megahertz{400.0}), 0.1, 1e-12);
  EXPECT_NEAR(
      power::effective_lookup_gbps(units::Megahertz{400.0}, load).value(),
      0.9 * 128.0, 1e-9);
}

TEST(UpdatePowerTest, MeasuredLoadMatchesManualReplay) {
  const RoutingTable base = gen_table(11, 200);
  net::UpdateStreamConfig config;
  config.update_count = 100;
  config.profile.prefix_count = 200;
  const net::UpdateStreamGenerator gen(config);
  const auto stream = gen.generate(base, 4);
  const power::UpdateLoad load =
      power::measure_update_load(base, stream, 1000.0);
  UpdatableTrie trie(base);
  const auto total = trie::apply_all(trie, stream);
  EXPECT_NEAR(load.words_per_update,
              static_cast<double>(total.words_written) / 100.0, 1e-12);
  EXPECT_GT(load.words_per_update, 0.0);
}

}  // namespace
}  // namespace vr
