#include "trie/snapshot_publisher.hpp"

#include <chrono>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "obs/timer.hpp"

namespace vr::trie {

namespace {

struct PublishMetrics {
  obs::Counter& publishes;
  obs::Counter& updates;
  obs::Histogram& publish_ns;

  static const PublishMetrics& get() {
    static PublishMetrics metrics = [] {
      obs::Registry& reg = obs::Registry::global();
      return PublishMetrics{reg.counter("trie.publishes"),
                            reg.counter("trie.publish_updates"),
                            reg.histogram("trie.publish_ns")};
    }();
    return metrics;
  }
};

/// Appends the image nodes whose stride window an update of `prefix` with
/// write cost `cost` changed. A route of length L lives in the node at level
/// ceil(L / stride) - 1 on its path (the default route in the root). When
/// the update created or removed trie nodes, the shallowest node whose
/// children changed sits at depth L - (created + removed); every image node
/// from the one whose window reaches that depth down to the route's own is
/// touched. Deeper nodes that appear or vanish are handled by their
/// touched parents.
void add_touched_nodes(const net::Prefix& prefix, const UpdateCost& cost,
                       unsigned stride,
                       std::vector<FlatMultibitTrie::NodeKey>& touched) {
  if (cost.words_written == 0) return;  // no-op update
  const std::size_t length = prefix.length();
  const auto level_of = [stride](std::size_t depth) -> std::size_t {
    return depth == 0 ? 0 : (depth - 1) / stride;
  };
  const std::size_t first =
      level_of(length - cost.nodes_created - cost.nodes_removed);
  for (std::size_t level = first; level <= level_of(length); ++level) {
    touched.push_back({prefix.address().value(), level});
  }
}

}  // namespace

SnapshotPublisher::SnapshotPublisher(const net::RoutingTable& base,
                                     unsigned stride)
    : stride_(stride), control_(base) {
  publish(std::make_shared<const FlatMultibitTrie>(control_, stride_), 0);
}

void SnapshotPublisher::publish(
    std::shared_ptr<const FlatMultibitTrie> image, std::uint64_t version) {
  const std::lock_guard<std::mutex> lock(publish_mutex_);
  current_ = std::move(image);
  // Release-store inside the lock: a reader that observes the new version
  // via published_version() may acquire() next, and the lock there hands
  // it the matching image.
  version_.store(version, std::memory_order_release);
}

SnapshotPublisher::PublishReceipt SnapshotPublisher::apply_batch(
    std::span<const net::RouteUpdate> updates) {
  PublishReceipt receipt;
  receipt.updates_applied = updates.size();

  const auto apply_start = std::chrono::steady_clock::now();
  touched_.clear();
  for (const net::RouteUpdate& update : updates) {
    const UpdateCost cost = control_.apply(update);
    add_touched_nodes(update.route.prefix, cost, stride_, touched_);
    receipt.cost += cost;
  }
  receipt.apply_ns = obs::since(apply_start);

  const auto build_start = std::chrono::steady_clock::now();
  auto image = std::make_shared<const FlatMultibitTrie>(
      acquire().image->patched(control_, touched_));
  receipt.build_ns = obs::since(build_start);

  const auto publish_start = std::chrono::steady_clock::now();
  receipt.version = version_.load(std::memory_order_relaxed) + 1;
  publish(std::move(image), receipt.version);
  receipt.publish_ns = obs::since(publish_start);

  const PublishMetrics& metrics = PublishMetrics::get();
  metrics.publishes.add(1);
  metrics.updates.add(updates.size());
  metrics.publish_ns.observe_duration(receipt.apply_ns + receipt.build_ns +
                                      receipt.publish_ns);
  return receipt;
}

SnapshotPublisher::Snapshot SnapshotPublisher::acquire() const {
  const std::lock_guard<std::mutex> lock(publish_mutex_);
  return Snapshot{current_, version_.load(std::memory_order_relaxed)};
}

}  // namespace vr::trie
