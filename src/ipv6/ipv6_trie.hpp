// IPv6 side of the uni-bit trie, used by the IPv6 scaling study
// (`extension_ipv6`): trie::UnibitTrie builds from a RoutingTable6 through
// the same insert, canonicalisation and leaf pushing as IPv4, so the
// paper's per-stage power model applies unchanged (one trie level per
// pipeline stage). Only the 128-bit walk and the table generator live
// here.
#pragma once

#include <optional>
#include <vector>

#include "ipv6/ipv6.hpp"
#include "trie/unibit_trie.hpp"

namespace vr::ipv6 {

/// Longest-prefix match of a 128-bit address in a trie built from a
/// RoutingTable6: next hop of the most specific route covering `addr`, or
/// nullopt.
[[nodiscard]] std::optional<net::NextHop> lookup(const trie::UnibitTrie& trie,
                                                 const Ipv6& addr);

/// Synthetic IPv6 edge-table generation: prefixes under a handful of
/// provider /32 allocations, lengths concentrated at /48 (delegations)
/// and /64 (subnets), with nesting.
struct TableProfile6 {
  std::size_t prefix_count = 3725;
  /// At most 2^(provider_block_length - 3) distinct blocks fit under
  /// 2000::/3.
  std::size_t provider_blocks = 6;
  /// In [3, 64]: blocks sit under 2000::/3 within the first 64 bits.
  unsigned provider_block_length = 32;
  unsigned min_length = 40;
  /// Weights for lengths min_length..min_length+len(weights)-1 step 4:
  /// /40 /44 /48 /52 /56 /60 /64
  std::vector<double> length_weights = {2.0, 3.0, 30.0, 4.0,
                                        6.0, 8.0, 47.0};
  std::uint64_t density_span = 8192;
  double nested_fraction = 0.25;
  net::NextHop next_hop_count = 16;
};

class SyntheticTableGenerator6 {
 public:
  explicit SyntheticTableGenerator6(TableProfile6 profile);
  [[nodiscard]] RoutingTable6 generate(std::uint64_t seed) const;

 private:
  TableProfile6 profile_;
};

}  // namespace vr::ipv6
