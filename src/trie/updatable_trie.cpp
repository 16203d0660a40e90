#include "trie/updatable_trie.hpp"

#include <algorithm>
#include <array>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace vr::trie {

UpdatableTrie::UpdatableTrie(const net::RoutingTable& table) {
  nodes_.push_back(Node{});
  live_nodes_ = 1;
  nodes_per_depth_[0] = 1;
  for (const net::Route& route : table.routes()) {
    announce(route);
  }
}

NodeIndex UpdatableTrie::allocate(unsigned depth) {
  NodeIndex index;
  if (!free_list_.empty()) {
    index = free_list_.back();
    free_list_.pop_back();
    nodes_[index] = Node{};
  } else {
    index = checked_node_index(nodes_.size(), "updatable trie");
    nodes_.push_back(Node{});
  }
  ++live_nodes_;
  ++nodes_per_depth_[depth];
  return index;
}

void UpdatableTrie::release(NodeIndex index, unsigned depth) {
  free_list_.push_back(index);
  --live_nodes_;
  --nodes_per_depth_[depth];
}

UpdateCost UpdatableTrie::apply(const net::RouteUpdate& update) {
  switch (update.kind) {
    case net::RouteUpdate::Kind::kAnnounce:
      return do_announce(update.route);
    case net::RouteUpdate::Kind::kWithdraw:
      return do_withdraw(update.route.prefix);
  }
  return {};
}

UpdateCost UpdatableTrie::do_announce(const net::Route& route) {
  VR_REQUIRE(route.next_hop != net::kNoRoute,
             "announce requires a real next hop");
  UpdateCost cost;
  NodeIndex current = 0;
  for (unsigned depth = 0; depth < route.prefix.length(); ++depth) {
    const bool go_right = route.prefix.bit(depth);
    NodeIndex& child =
        go_right ? nodes_[current].right : nodes_[current].left;
    if (child == kNullNode) {
      const NodeIndex fresh = allocate(depth + 1);
      // allocate() may reallocate nodes_, invalidating `child`.
      NodeIndex& slot =
          go_right ? nodes_[current].right : nodes_[current].left;
      slot = fresh;
      ++cost.nodes_created;
      // Writing the parent's pointer word plus the fresh node's word.
      cost.words_written += 2;
    }
    current = go_right ? nodes_[current].right : nodes_[current].left;
  }
  Node& target = nodes_[current];
  if (target.next_hop != route.next_hop) {
    const bool fresh_route = target.next_hop == net::kNoRoute;
    target.next_hop = route.next_hop;
    if (fresh_route) ++route_count_;
    if (cost.nodes_created == 0 || !fresh_route) {
      // Created nodes were already counted; an in-place NHI change is one
      // extra word.
      ++cost.words_written;
    }
  }
  cost.max_depth_touched = route.prefix.length();
  return cost;
}

UpdateCost UpdatableTrie::do_withdraw(const net::Prefix& prefix) {
  UpdateCost cost;
  // Walk down recording the path: path[d] is the node at depth d (the
  // root, index 0, at depth 0).
  std::array<NodeIndex, 33> path{};
  for (unsigned depth = 0; depth < prefix.length(); ++depth) {
    const Node& node = nodes_[path[depth]];
    const NodeIndex child = prefix.bit(depth) ? node.right : node.left;
    if (child == kNullNode) return cost;  // prefix not present: no-op
    path[depth + 1] = child;
  }
  const NodeIndex target = path[prefix.length()];
  if (nodes_[target].next_hop == net::kNoRoute) return cost;  // no route
  nodes_[target].next_hop = net::kNoRoute;
  --route_count_;
  ++cost.words_written;
  cost.max_depth_touched = prefix.length();

  // Prune now-useless leaves (no route, no children) bottom-up.
  for (unsigned depth = prefix.length(); depth > 0; --depth) {
    const NodeIndex index = path[depth];
    const Node& node = nodes_[index];
    if (!node.is_leaf() || node.next_hop != net::kNoRoute) break;
    const NodeIndex parent = path[depth - 1];
    if (nodes_[parent].left == index) {
      nodes_[parent].left = kNullNode;
    } else {
      nodes_[parent].right = kNullNode;
    }
    release(index, depth);
    ++cost.nodes_removed;
    ++cost.words_written;  // parent pointer word rewrite
  }
  return cost;
}

std::optional<net::NextHop> UpdatableTrie::lookup(net::Ipv4 addr) const {
  std::optional<net::NextHop> best;
  NodeIndex current = 0;
  for (unsigned depth = 0;; ++depth) {
    const Node& node = nodes_[current];
    if (node.next_hop != net::kNoRoute) best = node.next_hop;
    if (depth >= 32) break;
    const NodeIndex child =
        bit_at(addr.value(), depth) ? node.right : node.left;
    if (child == kNullNode) break;
    current = child;
  }
  return best;
}

void UpdatableTrie::expand_window(std::uint32_t path, unsigned depth,
                                  unsigned stride,
                                  std::span<net::NextHop> next_hops,
                                  std::span<bool> has_child) const {
  const std::size_t width = std::size_t{1} << stride;
  VR_REQUIRE(stride >= 1 && depth + stride <= 32 &&
                 next_hops.size() == width && has_child.size() == width,
             "stride window out of range");
  NodeIndex top = 0;
  for (unsigned d = 0; d < depth; ++d) {
    top = bit_at(path, d) ? nodes_[top].right : nodes_[top].left;
    VR_REQUIRE(top != kNullNode, "stride window under a missing trie node");
  }
  // Depth-first over the window; `slot` holds the k bits consumed so far
  // and `best` the deepest route seen on the way down.
  const auto expand = [&](const auto& self, NodeIndex index, unsigned k,
                          std::size_t slot, net::NextHop best) -> void {
    const Node& node = nodes_[index];
    if (node.next_hop != net::kNoRoute && (k > 0 || depth == 0)) {
      best = node.next_hop;
    }
    if (k == stride) {
      next_hops[slot] = best;
      has_child[slot] = !node.is_leaf();
      return;
    }
    for (const std::size_t bit : {0u, 1u}) {
      const NodeIndex child = bit == 0 ? node.left : node.right;
      const std::size_t sub = slot * 2 + bit;
      if (child != kNullNode) {
        self(self, child, k + 1, sub, best);
        continue;
      }
      // No node below: the whole sub-range inherits `best`.
      const std::size_t span = std::size_t{1} << (stride - k - 1);
      std::ranges::fill(next_hops.subspan(sub * span, span), best);
      std::ranges::fill(has_child.subspan(sub * span, span), false);
    }
  };
  expand(expand, top, 0, 0, net::kNoRoute);
}

net::RoutingTable UpdatableTrie::to_table() const {
  std::vector<net::Route> routes;
  routes.reserve(route_count_);
  // Iterative DFS reconstructing prefixes from paths.
  struct Frame {
    NodeIndex node;
    std::uint32_t bits;
    unsigned depth;
  };
  std::vector<Frame> stack{{0, 0, 0}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const Node& node = nodes_[frame.node];
    if (node.next_hop != net::kNoRoute) {
      routes.push_back(net::Route{
          net::Prefix(net::Ipv4(frame.bits), frame.depth), node.next_hop});
    }
    if (frame.depth < 32) {
      if (node.left != kNullNode) {
        stack.push_back(Frame{node.left, frame.bits, frame.depth + 1});
      }
      if (node.right != kNullNode) {
        stack.push_back(Frame{
            node.right,
            frame.bits | (std::uint32_t{1} << (31u - frame.depth)),
            frame.depth + 1});
      }
    }
  }
  return net::RoutingTable(std::move(routes));
}

UpdateCost apply_all(UpdatableTrie& trie,
                     const std::vector<net::RouteUpdate>& updates) {
  UpdateCost total;
  for (const net::RouteUpdate& update : updates) {
    total += trie.apply(update);
  }
  return total;
}

}  // namespace vr::trie
