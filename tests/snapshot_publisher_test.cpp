// SnapshotPublisher: correctness of the published images (every snapshot
// equals a from-scratch build of the control-plane table at that epoch,
// node for node, at strides 2, 4 and 8), version/staleness accounting, and
// a reader/updater stress test that a thread-sanitizer build
// (VR_SANITIZE=thread) checks for races.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "netbase/table_gen.hpp"
#include "netbase/update_gen.hpp"
#include "trie/snapshot_publisher.hpp"
#include "trie/unibit_trie.hpp"
#include "trie/updatable_trie.hpp"

namespace vr::trie {
namespace {

using net::Ipv4;
using net::RoutingTable;
using net::RouteUpdate;

RoutingTable gen_table(std::uint64_t seed, std::size_t prefixes = 300) {
  net::TableProfile profile;
  profile.prefix_count = prefixes;
  return net::SyntheticTableGenerator(profile).generate(seed);
}

std::vector<RouteUpdate> gen_updates(const RoutingTable& base,
                                     std::size_t count, std::uint64_t seed) {
  net::UpdateStreamConfig config;
  config.update_count = count;
  return net::UpdateStreamGenerator(config).generate(base, seed);
}

TEST(SnapshotPublisherTest, InitialImageMatchesBaseTable) {
  const RoutingTable base = gen_table(1);
  const SnapshotPublisher publisher(base, /*stride=*/4);
  EXPECT_EQ(publisher.published_version(), 0u);
  EXPECT_EQ(publisher.route_count(), base.routes().size());
  const SnapshotPublisher::Snapshot snap = publisher.acquire();
  ASSERT_NE(snap.image, nullptr);
  EXPECT_EQ(snap.version, 0u);
  EXPECT_EQ(publisher.staleness_of(snap), 0u);
  const UnibitTrie oracle(base);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    EXPECT_EQ(snap.image->lookup(addr), oracle.lookup(addr));
  }
}

/// Walks both images from the root in slot order and compares every
/// entry's next hop and whether it has a child: equal images up to node
/// numbering.
::testing::AssertionResult same_nodes(const FlatMultibitTrie& a,
                                      NodeIndex na,
                                      const FlatMultibitTrie& b,
                                      NodeIndex nb, const std::string& path) {
  for (std::size_t slot = 0; slot < a.width(); ++slot) {
    const std::string where = path + "/" + std::to_string(slot);
    if (a.next_hop(na, slot) != b.next_hop(nb, slot)) {
      return ::testing::AssertionFailure() << "next hop differs at " << where;
    }
    const NodeIndex ca = a.child(na, slot);
    const NodeIndex cb = b.child(nb, slot);
    if ((ca == kNullNode) != (cb == kNullNode)) {
      return ::testing::AssertionFailure() << "child differs at " << where;
    }
    if (ca != kNullNode) {
      const ::testing::AssertionResult below = same_nodes(a, ca, b, cb, where);
      if (!below) return below;
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_image(const FlatMultibitTrie& a,
                                      const FlatMultibitTrie& b) {
  if (a.stride() != b.stride() || a.node_count() != b.node_count() ||
      a.level_count() != b.level_count() ||
      a.entry_count() != b.entry_count()) {
    return ::testing::AssertionFailure()
           << "shape differs: nodes " << a.node_count() << " vs "
           << b.node_count() << ", levels " << a.level_count() << " vs "
           << b.level_count() << ", entries " << a.entry_count() << " vs "
           << b.entry_count();
  }
  return same_nodes(a, 0, b, 0, "");
}

/// Probes inside every prefix the batch touched (its first and last
/// address and random ones between) against a fresh build.
void expect_same_lookups_in(std::span<const RouteUpdate> batch,
                            const FlatMultibitTrie& image,
                            const FlatMultibitTrie& fresh, Rng& rng) {
  for (const RouteUpdate& update : batch) {
    const net::Prefix& prefix = update.route.prefix;
    const std::uint32_t base = prefix.address().value();
    const std::uint32_t host_mask =
        prefix.length() >= 32 ? 0u : 0xffffffffu >> prefix.length();
    std::vector<std::uint32_t> probes{base, base | host_mask};
    for (int i = 0; i < 16; ++i) {
      const auto bits = static_cast<std::uint32_t>(rng.next_u64());
      probes.push_back(base | (bits & host_mask));
    }
    for (const std::uint32_t probe : probes) {
      EXPECT_EQ(image.lookup(Ipv4(probe)), fresh.lookup(Ipv4(probe)))
          << "in " << prefix.to_string() << " at " << Ipv4(probe).to_string();
    }
  }
}

TEST(SnapshotPublisherTest, EveryEpochMatchesControlPlaneRebuild) {
  const RoutingTable base = gen_table(3);
  SnapshotPublisher publisher(base, /*stride=*/4);
  UpdatableTrie mirror(base);  // applies the same stream independently
  const std::vector<RouteUpdate> stream = gen_updates(base, 200, 5);
  constexpr std::size_t kBatch = 50;
  for (std::size_t b = 0; b < stream.size() / kBatch; ++b) {
    const std::span<const RouteUpdate> batch(stream.data() + b * kBatch,
                                             kBatch);
    const SnapshotPublisher::PublishReceipt receipt =
        publisher.apply_batch(batch);
    EXPECT_EQ(receipt.version, b + 1);
    EXPECT_EQ(receipt.updates_applied, kBatch);
    EXPECT_GE(receipt.apply_ns.value(), 0.0);
    EXPECT_GE(receipt.build_ns.value(), 0.0);
    EXPECT_GE(receipt.publish_ns.value(), 0.0);
    for (const RouteUpdate& update : batch) (void)mirror.apply(update);

    const SnapshotPublisher::Snapshot snap = publisher.acquire();
    EXPECT_EQ(snap.version, b + 1);
    EXPECT_EQ(publisher.published_version(), b + 1);
    EXPECT_EQ(publisher.route_count(), mirror.route_count());
    const FlatMultibitTrie rebuilt(mirror.to_table(), /*stride=*/4);
    EXPECT_TRUE(same_image(*snap.image, rebuilt));
    Rng rng(b);
    for (int i = 0; i < 500; ++i) {
      const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
      EXPECT_EQ(snap.image->lookup(addr), rebuilt.lookup(addr));
    }
    expect_same_lookups_in(batch, *snap.image, rebuilt, rng);
  }
}

/// Drives one publisher and an independent control-plane mirror through
/// the same batches, checking every published image against a fresh build.
class PatchedImageTest : public ::testing::TestWithParam<unsigned> {
 protected:
  void start(const RoutingTable& base) {
    publisher_ = std::make_unique<SnapshotPublisher>(base, GetParam());
    mirror_ = UpdatableTrie(base);
    check({});
  }

  void publish(std::span<const RouteUpdate> batch) {
    const SnapshotPublisher::PublishReceipt receipt =
        publisher_->apply_batch(batch);
    EXPECT_EQ(receipt.updates_applied, batch.size());
    for (const RouteUpdate& update : batch) (void)mirror_.apply(update);
    check(batch);
  }

  void publish(std::initializer_list<RouteUpdate> batch) {
    publish(std::span<const RouteUpdate>(batch.begin(), batch.size()));
  }

  void check(std::span<const RouteUpdate> batch) {
    const SnapshotPublisher::Snapshot snap = publisher_->acquire();
    const FlatMultibitTrie fresh(mirror_.to_table(), GetParam());
    EXPECT_EQ(publisher_->route_count(), mirror_.route_count());
    EXPECT_EQ(snap.image->node_count(), fresh.node_count());
    EXPECT_EQ(snap.image->level_count(), fresh.level_count());
    EXPECT_EQ(snap.image->entry_count(), fresh.entry_count());
    EXPECT_TRUE(same_image(*snap.image, fresh))
        << "after version " << snap.version;
    expect_same_lookups_in(batch, *snap.image, fresh, rng_);
  }

  [[nodiscard]] std::size_t image_nodes() const {
    return publisher_->acquire().image->node_count();
  }

  std::unique_ptr<SnapshotPublisher> publisher_;
  UpdatableTrie mirror_;
  Rng rng_{41};
};

RouteUpdate announce(const char* prefix, net::NextHop next_hop) {
  return {RouteUpdate::Kind::kAnnounce,
          {*net::Prefix::parse(prefix), next_hop}};
}

RouteUpdate withdraw(const char* prefix) {
  return {RouteUpdate::Kind::kWithdraw,
          {*net::Prefix::parse(prefix), net::kNoRoute}};
}

TEST_P(PatchedImageTest, DefaultRouteAnnounceAndWithdraw) {
  start(gen_table(3));
  publish({announce("0.0.0.0/0", 7)});
  publish({announce("0.0.0.0/0", 8)});
  publish({withdraw("0.0.0.0/0")});
  // From an empty table the default route is the root's only content.
  start(RoutingTable{});
  publish({announce("0.0.0.0/0", 3)});
  publish({withdraw("0.0.0.0/0"), announce("0.0.0.0/0", 4)});
  publish({withdraw("0.0.0.0/0")});
  EXPECT_EQ(image_nodes(), 1u);
}

TEST_P(PatchedImageTest, StrideBoundaryLengthsAndHostRoutes) {
  start(gen_table(5));
  publish({announce("198.0.0.0/8", 1), announce("198.18.0.0/16", 2),
           announce("198.18.7.0/24", 3), announce("198.18.7.9/32", 4)});
  publish({announce("198.18.0.0/15", 5), announce("198.18.0.0/17", 6),
           announce("198.18.6.0/23", 7), announce("198.18.7.128/25", 8),
           announce("198.18.7.8/31", 9), announce("198.18.7.10/32", 10),
           announce("198.0.0.0/7", 11), announce("198.0.0.0/9", 12)});
  for (const char* prefix :
       {"198.18.7.9/32", "198.18.7.0/24", "198.18.0.0/16", "198.0.0.0/8"}) {
    publish({withdraw(prefix)});
  }
  publish({withdraw("198.18.0.0/15"), withdraw("198.18.0.0/17"),
           withdraw("198.18.6.0/23"), withdraw("198.18.7.128/25"),
           withdraw("198.18.7.8/31"), withdraw("198.18.7.10/32"),
           withdraw("198.0.0.0/7"), withdraw("198.0.0.0/9")});
}

TEST_P(PatchedImageTest, WithdrawalsEmptyWholeStrideSubtrees) {
  const RoutingTable base = gen_table(7);
  const net::Prefix block = *net::Prefix::parse("198.18.0.0/15");
  for (const net::Route& route : base.routes()) {
    ASSERT_FALSE(block.covers(route.prefix)) << route.prefix.to_string();
  }
  start(base);
  const std::size_t before = image_nodes();
  publish({announce("198.18.7.0/24", 1), announce("198.18.7.128/25", 2),
           announce("198.18.7.77/32", 3), announce("198.19.200.0/22", 4)});
  EXPECT_GT(image_nodes(), before);
  // One withdrawal at a time: the last one of a subtree frees every
  // stride node under the shared ancestor.
  publish({withdraw("198.18.7.77/32")});
  publish({withdraw("198.18.7.0/24"), withdraw("198.18.7.128/25")});
  publish({withdraw("198.19.200.0/22")});
  EXPECT_EQ(image_nodes(), before);
  // Created and emptied again inside one batch.
  publish({announce("198.18.99.1/32", 5), announce("198.18.99.0/24", 6),
           withdraw("198.18.99.1/32"), withdraw("198.18.99.0/24")});
  EXPECT_EQ(image_nodes(), before);
}

TEST_P(PatchedImageTest, RandomChurnBatches) {
  const RoutingTable base = gen_table(11);
  start(base);
  const std::vector<RouteUpdate> stream = gen_updates(base, 1500, 13);
  const std::size_t sizes[] = {1, 16, 64, 3, 128, 7};
  std::size_t batches = 0;
  for (std::size_t at = 0; at < stream.size(); ++batches) {
    const std::size_t size = std::min(sizes[batches % 6], stream.size() - at);
    publish(std::span<const RouteUpdate>(stream.data() + at, size));
    at += size;
  }
  EXPECT_EQ(publisher_->published_version(), batches);
}

/// The updates that undo `stream` when applied in order after it: each
/// touched route flaps back to what it was before.
std::vector<RouteUpdate> undo_of(const RoutingTable& base,
                                 const std::vector<RouteUpdate>& stream) {
  RoutingTable live = base;
  std::vector<RouteUpdate> undo;
  for (const RouteUpdate& update : stream) {
    const auto routes = live.routes();
    const auto it = std::find_if(
        routes.begin(), routes.end(),
        [&](const net::Route& r) { return r.prefix == update.route.prefix; });
    if (it == routes.end()) {
      undo.push_back({RouteUpdate::Kind::kWithdraw,
                      {update.route.prefix, net::kNoRoute}});
    } else {
      undo.push_back({RouteUpdate::Kind::kAnnounce, *it});
    }
    if (update.kind == RouteUpdate::Kind::kWithdraw) {
      live.remove(update.route.prefix);
    } else {
      live.add(update.route);
    }
  }
  std::reverse(undo.begin(), undo.end());
  return undo;
}

TEST_P(PatchedImageTest, ChurnCycleAndUndoGiveBackVersionZero) {
  const RoutingTable base = gen_table(17);
  start(base);
  const std::shared_ptr<const FlatMultibitTrie> origin =
      publisher_->acquire().image;
  const std::vector<RouteUpdate> forward = gen_updates(base, 512, 19);
  const std::vector<RouteUpdate> backward = undo_of(base, forward);
  constexpr std::size_t kBatch = 16;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (const std::vector<RouteUpdate>* stream : {&forward, &backward}) {
      for (std::size_t at = 0; at < stream->size(); at += kBatch) {
        publish(std::span<const RouteUpdate>(
            stream->data() + at, std::min(kBatch, stream->size() - at)));
      }
    }
    EXPECT_EQ(publisher_->route_count(), base.size());
    EXPECT_TRUE(same_image(*publisher_->acquire().image, *origin))
        << "after cycle " << cycle;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strides, PatchedImageTest, ::testing::Values(2u, 4u, 8u),
    [](const ::testing::TestParamInfo<unsigned>& param_info) {
      return "Stride" + std::to_string(param_info.param);
    });

TEST(SnapshotPublisherTest, HeldSnapshotSurvivesLaterPublishes) {
  const RoutingTable base = gen_table(7);
  SnapshotPublisher publisher(base, /*stride=*/8);
  const SnapshotPublisher::Snapshot old_snap = publisher.acquire();
  const UnibitTrie oracle(base);

  const std::vector<RouteUpdate> stream = gen_updates(base, 120, 9);
  for (std::size_t b = 0; b < 3; ++b) {
    (void)publisher.apply_batch(
        std::span<const RouteUpdate>(stream.data() + b * 40, 40));
  }
  EXPECT_EQ(publisher.published_version(), 3u);
  EXPECT_EQ(publisher.staleness_of(old_snap), 3u);
  EXPECT_EQ(publisher.staleness_of(publisher.acquire()), 0u);
  // The retired image is still fully readable (deferred reclamation).
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    EXPECT_EQ(old_snap.image->lookup(addr), oracle.lookup(addr));
  }
}

// Reader/updater stress: concurrent readers acquire snapshots and run
// batched lookups while the writer keeps publishing churn batches. Under
// VR_SANITIZE=thread this is the race detector's target; in a plain build
// it still pins that every observed result is internally consistent
// (valid staleness, readable image, stable batch results).
TEST(SnapshotPublisherTest, ConcurrentReadersUnderChurn) {
  const RoutingTable base = gen_table(13);
  SnapshotPublisher publisher(base, /*stride=*/4);
  const std::vector<RouteUpdate> stream = gen_updates(base, 800, 17);
  constexpr std::size_t kBatch = 40;
  const std::size_t batches = stream.size() / kBatch;

  std::vector<Ipv4> addrs;
  {
    Rng rng(19);
    for (int i = 0; i < 256; ++i) {
      addrs.emplace_back(static_cast<std::uint32_t>(rng.next_u64()));
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<bool> failed{false};
  const auto reader = [&] {
    while (!stop.load(std::memory_order_acquire)) {
      const SnapshotPublisher::Snapshot snap = publisher.acquire();
      if (snap.image == nullptr) {
        failed.store(true);
        return;
      }
      const std::vector<net::NextHop> once = snap.image->lookup_batch(addrs);
      const std::vector<net::NextHop> twice =
          snap.image->lookup_batch(addrs);
      // The image is immutable: re-running the batch must be identical
      // no matter how many publishes happened in between.
      if (once != twice ||
          publisher.staleness_of(snap) >
              publisher.published_version() - snap.version) {
        failed.store(true);
        return;
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  // Three readers plus this writer: one thread per core on a 4-core host.
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) readers.emplace_back(reader);
  for (std::size_t b = 0; b < batches; ++b) {
    (void)publisher.apply_batch(
        std::span<const RouteUpdate>(stream.data() + b * kBatch, kBatch));
  }
  // On a single-core host the writer can finish before the readers are
  // even scheduled; keep the snapshots churn-adjacent by letting each
  // reader complete at least one pass before stopping.
  while (reads.load(std::memory_order_relaxed) < 2 && !failed.load()) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GE(reads.load(), 1u);
  EXPECT_EQ(publisher.published_version(), batches);
}

}  // namespace
}  // namespace vr::trie
