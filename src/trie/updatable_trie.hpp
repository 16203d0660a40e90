// Incrementally updatable uni-bit trie.
//
// The paper's Sec. V-B assumes a 1 % BRAM write rate ("low update rate"),
// and its reference [6] ("Towards on-the-fly incremental updates for
// virtualized routers on FPGA") motivates in-place route updates instead
// of full rebuilds. This class supports announce/withdraw with exact
// accounting of the memory writes each update would issue per pipeline
// stage — the inputs to the update-rate power model
// (power/update_power.hpp) and the `ablation_update_rate` bench.
//
// Unlike UnibitTrie (an immutable, level-contiguous deployment image),
// the updatable trie keeps an explicit free list and per-node depth; a
// deployment image can be snapshotted at any time via snapshot().
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netbase/route_update.hpp"
#include "netbase/routing_table.hpp"
#include "trie/unibit_trie.hpp"

namespace vr::trie {

/// Memory-write accounting of one applied update.
struct UpdateCost {
  std::size_t nodes_created = 0;
  std::size_t nodes_removed = 0;
  /// Node words written (created nodes + modified parents/entries).
  std::size_t words_written = 0;
  /// Deepest stage touched (== prefix length for a trie-path update).
  std::size_t max_depth_touched = 0;

  UpdateCost& operator+=(const UpdateCost& other) noexcept {
    nodes_created += other.nodes_created;
    nodes_removed += other.nodes_removed;
    words_written += other.words_written;
    max_depth_touched = std::max(max_depth_touched,
                                 other.max_depth_touched);
    return *this;
  }
};

class UpdatableTrie {
 public:
  /// Starts from an existing table (possibly empty).
  explicit UpdatableTrie(const net::RoutingTable& table = {});

  /// Applies one update; returns its write cost. Withdrawing an absent
  /// prefix or announcing an identical route is a no-op with zero writes.
  UpdateCost apply(const net::RouteUpdate& update);

  /// Convenience wrappers.
  UpdateCost announce(const net::Route& route) {
    return apply({net::RouteUpdate::Kind::kAnnounce, route});
  }
  UpdateCost withdraw(const net::Prefix& prefix) {
    return apply({net::RouteUpdate::Kind::kWithdraw, {prefix, net::kNoRoute}});
  }

  /// Longest-prefix match (same semantics as UnibitTrie::lookup).
  [[nodiscard]] std::optional<net::NextHop> lookup(net::Ipv4 addr) const;

  /// Live (non-free) node count, including the root.
  [[nodiscard]] std::size_t node_count() const noexcept {
    return live_nodes_;
  }
  /// Number of installed routes.
  [[nodiscard]] std::size_t route_count() const noexcept {
    return route_count_;
  }
  /// Live nodes per depth (size 33; the deployment's per-stage occupancy).
  [[nodiscard]] const std::vector<std::size_t>& nodes_per_depth() const
      noexcept {
    return nodes_per_depth_;
  }

  /// Controlled prefix expansion of one stride window: what the stride-k
  /// image node rooted at `depth` on `path` (its leading `depth` bits)
  /// holds. For each of the 2^stride slots s, `next_hops[s]` receives the
  /// route of the deepest node on path·s at depths (depth, depth + stride]
  /// — or at depth 0 itself, the default route's home — else kNoRoute;
  /// `has_child[s]` says whether the node at depth + stride on path·s has
  /// children, i.e. whether the image needs a child node under slot s.
  /// Read-only; visits at most 2^(stride+1) - 1 nodes. The node at `depth`
  /// on `path` must exist.
  void expand_window(std::uint32_t path, unsigned depth, unsigned stride,
                     std::span<net::NextHop> next_hops,
                     std::span<bool> has_child) const;

  /// Exports the current routes as a table (sorted).
  [[nodiscard]] net::RoutingTable to_table() const;

  /// Snapshots an immutable, level-contiguous deployment trie.
  [[nodiscard]] UnibitTrie snapshot() const { return UnibitTrie(to_table()); }

  /// Capacity of the node pool including freed slots (for tests asserting
  /// slot reuse).
  [[nodiscard]] std::size_t pool_size() const noexcept {
    return nodes_.size();
  }

 private:
  struct Node {
    NodeIndex left = kNullNode;
    NodeIndex right = kNullNode;
    net::NextHop next_hop = net::kNoRoute;

    [[nodiscard]] bool is_leaf() const noexcept {
      return left == kNullNode && right == kNullNode;
    }
  };

  NodeIndex allocate(unsigned depth);
  void release(NodeIndex index, unsigned depth);

  UpdateCost do_announce(const net::Route& route);
  UpdateCost do_withdraw(const net::Prefix& prefix);

  std::vector<Node> nodes_;
  std::vector<NodeIndex> free_list_;
  std::vector<std::size_t> nodes_per_depth_ = std::vector<std::size_t>(33, 0);
  std::size_t live_nodes_ = 0;
  std::size_t route_count_ = 0;
};

/// Applies a whole update stream, returning the accumulated cost.
UpdateCost apply_all(UpdatableTrie& trie,
                     const std::vector<net::RouteUpdate>& updates);

}  // namespace vr::trie
