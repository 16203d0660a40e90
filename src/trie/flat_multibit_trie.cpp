#include "trie/flat_multibit_trie.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "common/error.hpp"
#include "obs/registry.hpp"
#include "trie/prefetch.hpp"
#include "trie/updatable_trie.hpp"

namespace vr::trie {

namespace {

/// Batched-lookup counters of the multibit hot path, registered once.
struct LookupMetrics {
  obs::Counter& batches;
  obs::Counter& keys;

  static const LookupMetrics& get() {
    static LookupMetrics metrics = [] {
      obs::Registry& reg = obs::Registry::global();
      return LookupMetrics{
          reg.counter("trie.lookup_batches", {{"path", "multibit"}}),
          reg.counter("trie.lookup_keys", {{"path", "multibit"}})};
    }();
    return metrics;
  }
};

}  // namespace

FlatMultibitTrie::FlatMultibitTrie(unsigned stride, std::size_t vn_count)
    : stride_(stride),
      slot_mask_((1u << stride) - 1u),
      width_(std::size_t{1} << stride),
      vn_count_(vn_count) {
  VR_REQUIRE(stride == 1 || stride == 2 || stride == 4 || stride == 8,
             "flat multibit stride must be 1, 2, 4 or 8");
  VR_REQUIRE(vn_count_ >= 1, "flat multibit trie needs at least one VN");
  VR_REQUIRE(vn_count_ <= 0xffffu, "VN count exceeds the VNID width");
}

/// Build-time scaffolding: the image under construction plus the per-entry
/// per-VN expanded-route lengths that break ties during controlled prefix
/// expansion (longer original prefixes win). The lengths are discarded
/// once every route is inserted.
struct FlatMultibitTrie::Builder {
  FlatMultibitTrie image;
  std::vector<std::uint8_t> route_lens;  // parallel to image.next_hops_
  std::size_t level_count = 0;

  Builder(unsigned stride, std::size_t vn_count) : image(stride, vn_count) {
    allocate(0);
  }

  NodeIndex allocate(std::size_t level) {
    const NodeIndex index =
        checked_node_index(image.node_count(), "flat multibit trie");
    image.children_.insert(image.children_.end(), image.width_, kNullNode);
    image.next_hops_.insert(image.next_hops_.end(),
                            image.width_ * image.vn_count_, net::kNoRoute);
    route_lens.insert(route_lens.end(), image.width_ * image.vn_count_, 0);
    level_count = std::max(level_count, level + 1);
    return index;
  }

  [[nodiscard]] NodeIndex& child_ref(NodeIndex node, std::size_t slot) {
    return image.children_[static_cast<std::size_t>(node) * image.width_ +
                           slot];
  }

  /// Inserts one route of virtual network `vn` into the VN's own lane of
  /// the K-wide next-hop vectors. Structural nodes are shared across VNs
  /// (a node exists wherever any VN needs one).
  void insert(net::VnId vn, const net::Route& route) {
    const unsigned stride = image.stride_;
    const unsigned length = route.prefix.length();
    const std::uint32_t addr = route.prefix.address().value();
    NodeIndex current = 0;
    unsigned consumed = 0;
    while (length - consumed > stride) {
      const std::size_t slot =
          (addr >> (32u - consumed - stride)) & image.slot_mask_;
      if (child_ref(current, slot) == kNullNode) {
        const NodeIndex fresh = allocate(consumed / stride + 1);
        child_ref(current, slot) = fresh;
      }
      current = child_ref(current, slot);
      consumed += stride;
    }
    // Controlled prefix expansion of the final (possibly partial) stride:
    // the route covers 2^(stride - r) consecutive slots. A covered slot is
    // overwritten when empty or when this route's original prefix is at
    // least as long as the one already expanded there (r == 0 only for the
    // default route, which therefore never displaces a real route).
    const unsigned r = length - consumed;
    const std::size_t base =
        r == 0 ? 0
               : ((addr >> (32u - consumed - stride)) & image.slot_mask_ &
                  ~((1u << (stride - r)) - 1u));
    const std::size_t span = std::size_t{1} << (stride - r);
    const std::size_t node_base =
        static_cast<std::size_t>(current) * image.width_;
    for (std::size_t i = 0; i < span; ++i) {
      const std::size_t e =
          (node_base + base + i) * image.vn_count_ + vn;
      if (image.next_hops_[e] == net::kNoRoute || route_lens[e] <= length) {
        image.next_hops_[e] = route.next_hop;
        // narrow-ok: an IPv4 prefix length is at most 32
        route_lens[e] = static_cast<std::uint8_t>(length);
      }
    }
  }
};

FlatMultibitTrie::FlatMultibitTrie(const net::RoutingTable& table,
                                   unsigned stride)
    : FlatMultibitTrie(std::span<const net::RoutingTable* const>(
                           std::array<const net::RoutingTable*, 1>{&table}),
                       stride) {}

FlatMultibitTrie::FlatMultibitTrie(
    std::span<const net::RoutingTable* const> tables, unsigned stride)
    : FlatMultibitTrie(stride, tables.size()) {
  Builder builder(stride, tables.size());
  for (std::size_t v = 0; v < tables.size(); ++v) {
    VR_REQUIRE(tables[v] != nullptr, "null table in merged multibit input");
    for (const net::Route& route : tables[v]->routes()) {
      builder.insert(static_cast<net::VnId>(v), route);
    }
  }
  children_ = std::move(builder.image.children_);
  next_hops_ = std::move(builder.image.next_hops_);
  level_count_ = builder.level_count;
}

/// Emits a single-VN image node by node in depth-first order: a node is
/// either copied from the previous image or, when touched or new, refilled
/// from the control plane's stride window. Only nodes reachable in the new
/// image are emitted, so dropped subtrees leave no holes.
struct FlatMultibitTrie::Patcher {
  const FlatMultibitTrie* previous;  // null when building from scratch
  std::vector<std::uint8_t> touched;  // per node of *previous
  const UpdatableTrie& control;
  FlatMultibitTrie& out;

  /// Emits the node at `level` on `path`; `from` is its index in the
  /// previous image, kNullNode when it has none.
  NodeIndex emit(NodeIndex from, unsigned level, std::uint32_t path) {
    const std::size_t width = out.width_;
    const NodeIndex index =
        checked_node_index(out.node_count(), "flat multibit trie");
    const std::size_t row = static_cast<std::size_t>(index) * width;
    out.children_.resize(row + width, kNullNode);
    out.level_count_ = std::max(out.level_count_, std::size_t{level} + 1);
    const unsigned child_shift = 32u - (level + 1) * out.stride_;
    const auto emit_child = [&](std::size_t slot, NodeIndex child_from) {
      // narrow-ok: slot < 2^stride <= 256
      const auto slot_bits = static_cast<std::uint32_t>(slot);
      const NodeIndex child =
          emit(child_from, level + 1, path | (slot_bits << child_shift));
      out.children_[row + slot] = child;
    };

    if (from != kNullNode && touched[from] == 0) {
      const auto hops = previous->next_hops_.begin() +
                        static_cast<std::ptrdiff_t>(from) *
                            static_cast<std::ptrdiff_t>(width);
      out.next_hops_.insert(out.next_hops_.end(), hops,
                            hops + static_cast<std::ptrdiff_t>(width));
      // Child pointers are sparse; a tight search skips the null runs.
      const NodeIndex* const first =
          previous->children_.data() + static_cast<std::size_t>(from) * width;
      const NodeIndex* const last = first + width;
      const auto is_child = [](NodeIndex c) { return c != kNullNode; };
      for (const NodeIndex* kid = std::find_if(first, last, is_child);
           kid != last; kid = std::find_if(kid + 1, last, is_child)) {
        emit_child(static_cast<std::size_t>(kid - first), *kid);
      }
      return index;
    }
    out.next_hops_.resize(row + width);
    std::array<bool, 256> has_child{};  // width <= 2^8
    control.expand_window(
        path, level * out.stride_, out.stride_,
        std::span<net::NextHop>(out.next_hops_).subspan(row, width),
        std::span<bool>(has_child).first(width));
    for (std::size_t slot = 0; slot < width; ++slot) {
      if (has_child[slot]) {
        emit_child(slot, from == kNullNode ? kNullNode
                                           : previous->child(from, slot));
      }
    }
    return index;
  }
};

FlatMultibitTrie::FlatMultibitTrie(const UpdatableTrie& control,
                                   unsigned stride)
    : FlatMultibitTrie(stride, 1) {
  Patcher patcher{nullptr, {}, control, *this};
  patcher.emit(kNullNode, 0, 0);
}

FlatMultibitTrie FlatMultibitTrie::patched(
    const UpdatableTrie& control, std::span<const NodeKey> touched) const {
  VR_REQUIRE(vn_count_ == 1, "only single-VN images can be patched");
  FlatMultibitTrie next(stride_, 1);
  next.children_.reserve(children_.size());
  next.next_hops_.reserve(next_hops_.size());
  Patcher patcher{this, std::vector<std::uint8_t>(node_count(), 0), control,
                  next};
  for (const NodeKey& key : touched) {
    VR_REQUIRE(key.level < max_level_count(), "node key below the image");
    NodeIndex node = 0;
    for (std::size_t level = 0; level < key.level && node != kNullNode;
         ++level) {
      node = child(node, slot_of(key.path, level));
    }
    // A key with no node here names one the batch created: its parent
    // was touched too and fills it from scratch.
    if (node != kNullNode) patcher.touched[node] = 1;
  }
  patcher.emit(0, 0, 0);
  return next;
}

std::vector<std::size_t> FlatMultibitTrie::level_node_counts() const {
  std::vector<std::size_t> counts;
  std::vector<NodeIndex> level{0};
  std::vector<NodeIndex> next;
  while (!level.empty()) {
    counts.push_back(level.size());
    next.clear();
    for (const NodeIndex node : level) {
      for (std::size_t slot = 0; slot < width_; ++slot) {
        if (child(node, slot) != kNullNode) next.push_back(child(node, slot));
      }
    }
    level.swap(next);
  }
  return counts;
}

std::vector<std::uint64_t> FlatMultibitTrie::level_memory_bits(
    unsigned pointer_bits, unsigned nhi_bits) const {
  std::vector<std::uint64_t> bits;
  for (const std::size_t nodes : level_node_counts()) {
    bits.push_back(std::uint64_t{nodes} * width_ *
                   entry_bits(pointer_bits, nhi_bits));
  }
  return bits;
}

net::NextHop FlatMultibitTrie::lookup_raw(std::uint32_t addr,
                                          net::VnId vn) const noexcept {
  net::NextHop best = net::kNoRoute;
  NodeIndex node = 0;
  for (unsigned consumed = 0; consumed < 32; consumed += stride_) {
    const std::size_t entry =
        static_cast<std::size_t>(node) * width_ +
        ((addr >> (32u - consumed - stride_)) & slot_mask_);
    const net::NextHop hop = next_hops_[entry * vn_count_ + vn];
    if (hop != net::kNoRoute) best = hop;
    const NodeIndex child = children_[entry];
    if (child == kNullNode) break;
    node = child;
  }
  return best;
}

std::optional<net::NextHop> FlatMultibitTrie::lookup(net::Ipv4 addr,
                                                     net::VnId vn) const {
  const net::NextHop hop = lookup_raw(addr.value(), vn);
  return hop == net::kNoRoute ? std::nullopt
                              : std::optional<net::NextHop>(hop);
}

template <typename AddrFn, typename VnFn>
void FlatMultibitTrie::lookup_batch_core(std::size_t count, AddrFn&& addr_at,
                                         VnFn&& vn_at,
                                         net::NextHop* out) const {
  // Lane-interleaved software pipeline (trie/prefetch.hpp): a window of up
  // to D lookups is in flight; each round advances every lane one stride
  // and prefetches the exact entry the lane will read next round, so up to
  // D dependent memory accesses are resolved concurrently.
  struct Lane {
    std::uint32_t addr;
    NodeIndex node;
    unsigned consumed;
    net::NextHop best;
    net::VnId vn;
    std::size_t out_index;
  };
  const unsigned window = prefetch_distance(kMultibitPrefetchDistance);
  if (window <= 1) {
    // A window of 1 is a plain scalar loop; skip the lane bookkeeping.
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = lookup_raw(addr_at(i), vn_at(i));
    }
    return;
  }
  Lane lanes[kMaxPrefetchDistance];
  std::size_t issued = 0;
  unsigned active = 0;
  const auto start_lane = [&](Lane& lane, std::size_t i) {
    lane.addr = addr_at(i);
    lane.node = 0;
    lane.consumed = 0;
    lane.best = net::kNoRoute;
    lane.vn = vn_at(i);
    lane.out_index = i;
  };
  while (issued < count && active < window) {
    start_lane(lanes[active++], issued);
    ++issued;
  }
  while (active > 0) {
    for (unsigned l = 0; l < active;) {
      Lane& lane = lanes[l];
      const std::size_t entry =
          static_cast<std::size_t>(lane.node) * width_ +
          ((lane.addr >> (32u - lane.consumed - stride_)) & slot_mask_);
      const net::NextHop hop = next_hops_[entry * vn_count_ + lane.vn];
      if (hop != net::kNoRoute) lane.best = hop;
      const NodeIndex child = children_[entry];
      lane.consumed += stride_;
      if (child == kNullNode || lane.consumed >= 32) {
        out[lane.out_index] = lane.best;
        if (issued < count) {
          start_lane(lane, issued);  // reuse the lane for the next key
          ++issued;
          ++l;
        } else {
          // Compact: the moved-in lane has not stepped this round yet, so
          // do not advance l.
          lanes[l] = lanes[--active];
        }
      } else {
        lane.node = child;
        const std::size_t next_entry =
            static_cast<std::size_t>(child) * width_ +
            ((lane.addr >> (32u - lane.consumed - stride_)) & slot_mask_);
        prefetch_read(&children_[next_entry]);
        prefetch_read(&next_hops_[next_entry * vn_count_ + lane.vn]);
        ++l;
      }
    }
  }
}

std::vector<net::NextHop> FlatMultibitTrie::lookup_batch(
    std::span<const net::Ipv4> addrs, net::VnId vn) const {
  const LookupMetrics& metrics = LookupMetrics::get();
  metrics.batches.add(1);
  metrics.keys.add(addrs.size());
  std::vector<net::NextHop> out(addrs.size(), net::kNoRoute);
  lookup_batch_core(
      addrs.size(), [&](std::size_t i) { return addrs[i].value(); },
      [&](std::size_t) { return vn; }, out.data());
  return out;
}

std::vector<net::NextHop> FlatMultibitTrie::lookup_batch(
    std::span<const net::Packet> packets) const {
  const LookupMetrics& metrics = LookupMetrics::get();
  metrics.batches.add(1);
  metrics.keys.add(packets.size());
  std::vector<net::NextHop> out(packets.size(), net::kNoRoute);
  lookup_batch_core(
      packets.size(),
      [&](std::size_t i) { return packets[i].addr.value(); },
      [&](std::size_t i) { return packets[i].vnid; }, out.data());
  return out;
}

}  // namespace vr::trie
