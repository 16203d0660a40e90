// Structural K-way trie merge — the "virtualized-merged" data structure
// (paper Sec. II-A.2, V-D): all K virtual networks share one lookup trie;
// a merged node exists wherever any input trie has a node, and leaves carry
// a K-wide next-hop vector indexed by the virtual-network identifier (VNID).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "netbase/traffic.hpp"
#include "trie/flat_trie.hpp"
#include "trie/trie_stats.hpp"
#include "trie/unibit_trie.hpp"

namespace vr::virt {

/// A node of the merged trie. Per-VN next hops live in a flat pool
/// (`MergedTrie::next_hops`) at offset node_index * K.
struct MergedNode {
  trie::NodeIndex left = trie::kNullNode;
  trie::NodeIndex right = trie::kNullNode;
  /// Number of input tries containing this node (>= 1). Used for the
  /// structural overlap statistics.
  std::uint16_t present_in = 0;

  [[nodiscard]] bool is_leaf() const noexcept {
    return left == trie::kNullNode && right == trie::kNullNode;
  }
};

/// Structural sharing statistics of a merge.
struct MergeStats {
  std::size_t merged_nodes = 0;
  std::size_t sum_input_nodes = 0;   ///< Σ_k n_k over the K input tries
  std::size_t shared_any = 0;        ///< nodes present in >= 2 tries
  std::size_t shared_all = 0;        ///< nodes present in all K tries

  /// Structural overlap per the paper's Assumption 4 ("common nodes /
  /// total nodes"), with "common" = present in at least two tries.
  [[nodiscard]] double alpha_structural() const noexcept {
    return merged_nodes == 0 ? 0.0
                             : static_cast<double>(shared_any) /
                                   static_cast<double>(merged_nodes);
  }

  /// Effective merging efficiency: the α that makes the analytical merged
  /// node-count formula T = Σn / (1 + (K-1)α) · K/K (DESIGN.md Sec. 3)
  /// reproduce the measured merged node count exactly. For K == 1 this is
  /// defined as 1.
  [[nodiscard]] double alpha_effective(std::size_t vn_count) const noexcept;
};

/// The merged trie. Nodes are stored in breadth-first (level) order like
/// UnibitTrie so that stage mapping works identically.
class MergedTrie {
 public:
  /// Merges K tries. All inputs must be non-null; K >= 1. If the inputs
  /// are leaf-pushed the merged trie is too (mixing is allowed but then the
  /// result is not considered leaf-pushed).
  explicit MergedTrie(std::span<const trie::UnibitTrie* const> tries);

  [[nodiscard]] std::size_t vn_count() const noexcept { return vn_count_; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::span<const MergedNode> nodes() const noexcept {
    return nodes_;
  }

  /// Next hop of node `node` for virtual network `vn` (kNoRoute if the VN
  /// has no route at this node). The K-wide NHI pool lives in the flat
  /// SoA view.
  [[nodiscard]] net::NextHop next_hop(trie::NodeIndex node, net::VnId vn)
      const {
    return flat_->next_hop(node, vn);
  }

  /// Longest-prefix match for a packet of virtual network `vn`.
  [[nodiscard]] std::optional<net::NextHop> lookup(net::Ipv4 addr,
                                                   net::VnId vn) const;

  /// Batched longest-prefix match of VNID-tagged packets.
  [[nodiscard]] std::vector<net::NextHop> lookup_batch(
      std::span<const net::Packet> packets) const {
    return flat_->lookup_batch(packets);
  }

  /// The flat structure-of-arrays view (lookup hot path).
  [[nodiscard]] const trie::FlatTrie& flat() const noexcept { return *flat_; }
  [[nodiscard]] std::shared_ptr<const trie::FlatTrie> flat_shared()
      const noexcept {
    return flat_;
  }

  [[nodiscard]] const MergeStats& stats() const noexcept { return stats_; }

  /// Invariant: level_offsets_ always has >= 2 entries after construction
  /// (K >= 1 inputs each contribute at least a root), so these cannot
  /// underflow. The asserts guard moved-from objects.
  [[nodiscard]] unsigned height() const noexcept {
    assert(level_offsets_.size() >= 2 && "merged trie has no levels");
    return static_cast<unsigned>(level_offsets_.size() - 2);
  }
  [[nodiscard]] std::size_t level_count() const noexcept {
    assert(level_offsets_.size() >= 2 && "merged trie has no levels");
    return level_offsets_.size() - 1;
  }
  [[nodiscard]] std::span<const std::size_t> level_offsets() const noexcept {
    return level_offsets_;
  }
  [[nodiscard]] std::span<const MergedNode> level(std::size_t l) const;

  /// Per-level structural statistics in the same shape as a single trie's
  /// (trie::compute_stats of this trie; leaves carry K-wide NHI vectors,
  /// which the memory layer accounts for via its vn_count parameter).
  [[nodiscard]] trie::TrieStats stats_as_trie() const;

 private:
  std::size_t vn_count_;
  std::vector<MergedNode> nodes_;
  std::vector<std::size_t> level_offsets_;
  /// Flat SoA view owning the node-major K-wide next-hop pool.
  std::shared_ptr<const trie::FlatTrie> flat_;
  MergeStats stats_;
};

}  // namespace vr::virt
