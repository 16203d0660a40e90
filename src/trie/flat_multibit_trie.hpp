// Flat stride-k multibit lookup image — the fixed-stride trie of the
// paper's reference [16] (Ruiz-Sanchez et al., "Survey and taxonomy of IP
// address lookup algorithms") and the line-rate end of the software lookup
// path. Where FlatTrie consumes one address bit per pointer chase (up to
// 33 dependent memory accesses per lookup), a stride-k image consumes k
// bits per level, so a full /32 walk needs only 32/k dependent accesses
// (4 for k = 8) at the price of controlled prefix expansion (each node
// stores 2^k entries, and prefixes are expanded to stride boundaries).
// The same image prices the hardware-side tradeoff: a stride-k pipeline
// needs one stage per level (`ablation_stride`).
//
// The image is a structure of arrays shared by every consumer kind the
// unibit FlatTrie serves: scalar `lookup` (verified against the
// UnibitTrie oracle), the pipeline simulator via `pipeline::TrieView`
// (one stride-k level per stage), and the batched dataplane
// `lookup_batch`, which runs the prefetch-pipelined loop described in
// trie/prefetch.hpp.
//
// Like FlatTrie, one image can serve K virtual networks (the VM merged
// scheme): entries carry a K-wide next-hop vector indexed by VNID, and a
// node exists wherever *any* VN's own multibit trie has one.
//
// A single-VN image can also follow an UpdatableTrie through route
// updates: patched() makes the next image from the previous one, refilling
// only the nodes an update batch touched (see trie/snapshot_publisher.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netbase/routing_table.hpp"
#include "netbase/traffic.hpp"
#include "trie/unibit_trie.hpp"

namespace vr::trie {

class UpdatableTrie;

class FlatMultibitTrie {
 public:
  /// Names a node of a single-VN image by where it sits: at `level`, on
  /// the path given by the leading level * stride bits of `path` (the
  /// remaining bits are ignored).
  struct NodeKey {
    std::uint32_t path = 0;
    std::size_t level = 0;
  };

  /// Builds a single-VN stride-k image straight from a routing table
  /// (k in {1, 2, 4, 8}, the strides that divide 32 evenly).
  FlatMultibitTrie(const net::RoutingTable& table, unsigned stride);

  /// Builds a K-way merged stride-k image: `tables[v]` is the routing
  /// table of virtual network v. All pointers non-null, K >= 1.
  FlatMultibitTrie(std::span<const net::RoutingTable* const> tables,
                   unsigned stride);

  /// Builds the single-VN stride-k image of `control`'s routes, node by
  /// node from its stride windows (UpdatableTrie::expand_window). Answers
  /// every lookup as FlatMultibitTrie(control.to_table(), stride) does and
  /// has the same node, level and entry counts.
  FlatMultibitTrie(const UpdatableTrie& control, unsigned stride);

  /// The image of `control` made from this one, which must be single-VN
  /// and have matched `control` before some updates. Nodes named in
  /// `touched` are refilled from `control`'s stride windows, as are nodes
  /// `control` newly needs under them; nodes it no longer needs are
  /// dropped; every other node is copied as is. The result equals
  /// FlatMultibitTrie(control, stride()) as long as `touched` names every node
  /// whose window the updates changed. This image is left untouched.
  [[nodiscard]] FlatMultibitTrie patched(
      const UpdatableTrie& control, std::span<const NodeKey> touched) const;

  [[nodiscard]] unsigned stride() const noexcept { return stride_; }
  /// Entries per node (2^stride).
  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t vn_count() const noexcept { return vn_count_; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return children_.size() / width_;
  }
  /// Total stored entries (nodes x 2^stride).
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return children_.size();
  }
  /// Allocated levels; a full /32 walk visits min(level_count, 32/stride)
  /// nodes.
  [[nodiscard]] std::size_t level_count() const noexcept {
    return level_count_;
  }
  /// Maximum levels a stride-k image can have (32 / stride).
  [[nodiscard]] std::size_t max_level_count() const noexcept {
    return 32u / stride_;
  }
  /// Nodes per level, root level first (level_count() entries), counted
  /// by a breadth-first walk of the image.
  [[nodiscard]] std::vector<std::size_t> level_node_counts() const;

  /// Child pointer of entry `slot` of node `n` (kNullNode when none).
  [[nodiscard]] NodeIndex child(NodeIndex n, std::size_t slot)
      const noexcept {
    return children_[static_cast<std::size_t>(n) * width_ + slot];
  }
  /// Next hop stored at entry (n, slot) for virtual network `vn`.
  [[nodiscard]] net::NextHop next_hop(NodeIndex n, std::size_t slot,
                                      net::VnId vn = 0) const noexcept {
    return next_hops_[(static_cast<std::size_t>(n) * width_ + slot) *
                          vn_count_ +
                      vn];
  }

  /// The address bits level `l` consumes, as an entry slot.
  [[nodiscard]] std::size_t slot_of(std::uint32_t addr, std::size_t level)
      const noexcept {
    return (addr >> (32u - (level + 1) * stride_)) & slot_mask_;
  }

  /// Longest-prefix match for virtual network `vn`; nullopt when no route
  /// covers `addr`. Identical results to UnibitTrie::lookup over the same
  /// table (the differential tests pin this).
  [[nodiscard]] std::optional<net::NextHop> lookup(net::Ipv4 addr,
                                                   net::VnId vn = 0) const;

  /// Batched longest-prefix match, prefetch-pipelined (trie/prefetch.hpp):
  /// one result per address, kNoRoute where no route covers it.
  [[nodiscard]] std::vector<net::NextHop> lookup_batch(
      std::span<const net::Ipv4> addrs, net::VnId vn = 0) const;

  /// Batched lookup of VNID-tagged packets (merged-image dataplane path).
  [[nodiscard]] std::vector<net::NextHop> lookup_batch(
      std::span<const net::Packet> packets) const;

  /// Memory footprint in bits: every entry stores a child pointer plus
  /// one next hop per VN (`pointer_bits` + vn_count x `nhi_bits` wide).
  [[nodiscard]] std::uint64_t memory_bits(unsigned pointer_bits = 18,
                                          unsigned nhi_bits = 8) const
      noexcept {
    return std::uint64_t{entry_count()} * entry_bits(pointer_bits, nhi_bits);
  }

  /// memory_bits() per level (for stage-mapped power evaluation).
  [[nodiscard]] std::vector<std::uint64_t> level_memory_bits(
      unsigned pointer_bits = 18, unsigned nhi_bits = 8) const;

 private:
  struct Builder;
  struct Patcher;

  FlatMultibitTrie(unsigned stride, std::size_t vn_count);

  [[nodiscard]] std::uint64_t entry_bits(unsigned pointer_bits,
                                         unsigned nhi_bits) const noexcept {
    return pointer_bits + std::uint64_t{nhi_bits} * vn_count_;
  }

  [[nodiscard]] net::NextHop lookup_raw(std::uint32_t addr,
                                        net::VnId vn) const noexcept;

  /// Pipelined batch core: resolves the key (addr_at(i), vn_at(i)) into
  /// `out[i]` for i in [0, count) with a `prefetch_distance()`-deep lane
  /// window. Defined in the implementation file; instantiated only there.
  template <typename AddrFn, typename VnFn>
  void lookup_batch_core(std::size_t count, AddrFn&& addr_at, VnFn&& vn_at,
                         net::NextHop* out) const;

  unsigned stride_;
  std::uint32_t slot_mask_;
  std::size_t width_;
  std::size_t vn_count_;
  std::size_t level_count_ = 1;
  std::vector<NodeIndex> children_;     // node-major, width_ per node
  std::vector<net::NextHop> next_hops_; // entry-major, vn_count_ per entry
};

}  // namespace vr::trie
