#include "virt/merged_trie.hpp"

#include <algorithm>
#include <deque>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace vr::virt {

double MergeStats::alpha_effective(std::size_t vn_count) const noexcept {
  if (vn_count <= 1) return 1.0;
  if (merged_nodes == 0) return 0.0;
  const double s = static_cast<double>(sum_input_nodes);
  const double t = static_cast<double>(merged_nodes);
  const double alpha = (s / t - 1.0) / static_cast<double>(vn_count - 1);
  return std::clamp(alpha, 0.0, 1.0);
}

MergedTrie::MergedTrie(std::span<const trie::UnibitTrie* const> tries)
    : vn_count_(tries.size()) {
  VR_REQUIRE(!tries.empty(), "merge requires at least one trie");
  for (const auto* t : tries) {
    VR_REQUIRE(t != nullptr, "null trie in merge input");
    stats_.sum_input_nodes += t->node_count();
  }

  // Breadth-first simultaneous walk of all K tries. A frame carries, for
  // each input trie, the index of its node at the current merged position
  // (kNullNode when that trie has no node here).
  std::vector<net::NextHop> next_hops;  // node-major, K entries per node
  struct Frame {
    std::vector<trie::NodeIndex> srcs;
  };
  std::deque<Frame> frontier;
  {
    Frame root;
    root.srcs.assign(vn_count_, 0);  // every trie has a root
    frontier.push_back(std::move(root));
  }
  level_offsets_.push_back(0);

  while (!frontier.empty()) {
    const std::size_t level_size = frontier.size();
    for (std::size_t i = 0; i < level_size; ++i) {
      Frame frame = std::move(frontier.front());
      frontier.pop_front();

      MergedNode node;
      std::uint16_t present = 0;
      bool any_left = false;
      bool any_right = false;
      for (std::size_t v = 0; v < vn_count_; ++v) {
        const trie::NodeIndex src = frame.srcs[v];
        net::NextHop hop = net::kNoRoute;
        if (src != trie::kNullNode) {
          ++present;
          const trie::TrieNode& n = tries[v]->node(src);
          hop = n.next_hop;
          any_left = any_left || n.left != trie::kNullNode;
          any_right = any_right || n.right != trie::kNullNode;
        }
        next_hops.push_back(hop);
      }
      node.present_in = present;

      if (any_left) {
        Frame child;
        child.srcs.resize(vn_count_);
        for (std::size_t v = 0; v < vn_count_; ++v) {
          const trie::NodeIndex src = frame.srcs[v];
          child.srcs[v] = src == trie::kNullNode ? trie::kNullNode
                                                 : tries[v]->node(src).left;
        }
        // Child indices are assigned in frontier order. At this point
        // nodes_ holds P + i nodes (P = nodes of all previous levels; the
        // current node is appended below) and the frontier holds the
        // remaining frames of this level plus the children queued so far,
        // so the child lands at P + level_size + children_so_far
        // = nodes_.size() + frontier.size() + 1.
        node.left = trie::checked_node_index(
            nodes_.size() + frontier.size() + 1, "merged trie");
        frontier.push_back(std::move(child));
      }
      if (any_right) {
        Frame child;
        child.srcs.resize(vn_count_);
        for (std::size_t v = 0; v < vn_count_; ++v) {
          const trie::NodeIndex src = frame.srcs[v];
          child.srcs[v] = src == trie::kNullNode ? trie::kNullNode
                                                 : tries[v]->node(src).right;
        }
        node.right = trie::checked_node_index(
            nodes_.size() + frontier.size() + 1, "merged trie");
        frontier.push_back(std::move(child));
      }
      nodes_.push_back(node);
      if (present >= 2) ++stats_.shared_any;
      if (present == vn_count_ && vn_count_ >= 2) ++stats_.shared_all;
    }
    level_offsets_.push_back(nodes_.size());
  }
  stats_.merged_nodes = nodes_.size();

  std::vector<trie::NodeIndex> left;
  std::vector<trie::NodeIndex> right;
  left.reserve(nodes_.size());
  right.reserve(nodes_.size());
  for (const MergedNode& node : nodes_) {
    left.push_back(node.left);
    right.push_back(node.right);
  }
  flat_ = std::make_shared<const trie::FlatTrie>(
      std::move(left), std::move(right), std::move(next_hops), vn_count_,
      level_count());
}

std::optional<net::NextHop> MergedTrie::lookup(net::Ipv4 addr,
                                               net::VnId vn) const {
  VR_REQUIRE(vn < vn_count_, "VNID out of range");
  return flat_->lookup(addr, vn);
}

std::span<const MergedNode> MergedTrie::level(std::size_t l) const {
  VR_REQUIRE(l < level_count(), "merged trie level out of range");
  return {nodes_.data() + level_offsets_[l],
          level_offsets_[l + 1] - level_offsets_[l]};
}

trie::TrieStats MergedTrie::stats_as_trie() const {
  return trie::compute_stats(*this);
}

}  // namespace vr::virt
