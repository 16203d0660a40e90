// Structural statistics of a trie — the quantities the power models consume
// (node counts per level, pointer vs. NHI nodes) and the numbers Sec. V-E
// of the paper reports (3 725 prefixes -> 9 726 nodes -> 16 127 leaf-pushed).
#pragma once

#include <cstddef>
#include <vector>

#include "trie/unibit_trie.hpp"

namespace vr::trie {

struct TrieStats {
  std::size_t total_nodes = 0;
  std::size_t internal_nodes = 0;  // pointer nodes (have >=1 child)
  std::size_t leaf_nodes = 0;      // NHI nodes
  unsigned height = 0;
  /// Nodes per level, internal and leaf separately. Size = height+1.
  std::vector<std::size_t> nodes_per_level;
  std::vector<std::size_t> internal_per_level;
  std::vector<std::size_t> leaves_per_level;

  /// total_nodes / prefix_count given the source table size.
  [[nodiscard]] double nodes_per_prefix(std::size_t prefix_count) const {
    return prefix_count == 0
               ? 0.0
               : static_cast<double>(total_nodes) /
                     static_cast<double>(prefix_count);
  }
};

/// Computes statistics in one pass over a level-ordered trie: one with
/// node_count(), height(), level_count() and level(l), a span of the nodes
/// of level l that answer is_leaf() — UnibitTrie (of any key width) and
/// virt::MergedTrie.
template <typename LevelOrderedTrie>
[[nodiscard]] TrieStats compute_stats(const LevelOrderedTrie& trie) {
  TrieStats stats;
  stats.total_nodes = trie.node_count();
  stats.height = trie.height();
  const std::size_t levels = trie.level_count();
  stats.nodes_per_level.assign(levels, 0);
  stats.internal_per_level.assign(levels, 0);
  stats.leaves_per_level.assign(levels, 0);
  for (std::size_t l = 0; l < levels; ++l) {
    const auto level = trie.level(l);
    stats.nodes_per_level[l] = level.size();
    for (const auto& node : level) {
      if (node.is_leaf()) {
        ++stats.leaves_per_level[l];
      } else {
        ++stats.internal_per_level[l];
      }
    }
    stats.internal_nodes += stats.internal_per_level[l];
    stats.leaf_nodes += stats.leaves_per_level[l];
  }
  return stats;
}

}  // namespace vr::trie
