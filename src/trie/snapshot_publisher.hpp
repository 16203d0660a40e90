// Epoch-style snapshot publication for concurrent route updates.
//
// The paper's update-rate model (Sec. V-B) assumes the control plane keeps
// writing routes while the data plane keeps forwarding. This publisher
// realizes the software analogue of that split with RCU-style snapshots:
// a single writer owns an UpdatableTrie (the control-plane state), applies
// BGP-churn batches to it, patches the previous immutable FlatMultibitTrie
// image into a new one and atomically publishes it. Readers acquire() a
// shared_ptr snapshot and run lookups against a frozen image — never
// blocked by the writer, never observing a half-applied batch. Retired
// images are reclaimed by the last shared_ptr release (deferred
// reclamation), so a reader mid-batch keeps its epoch alive for free.
//
// Patching follows the paper's reference [6] (on-the-fly incremental
// updates): an update rewrites one trie path, so the new image copies the
// previous one and refills only the stride nodes the batch touched — the
// node holding each updated route and, where an update created or removed
// trie nodes, the ancestors whose child pointers that changes (see
// FlatMultibitTrie::patched). The cost is one copying pass over the image
// plus one window walk (at most 2^(stride+1) - 1 trie nodes) per touched
// node; nothing re-sorts or re-expands the whole table.
//
// Staleness is observable: every published image carries a monotonically
// increasing version, and staleness_of() reports how many batches a held
// snapshot is behind the newest one. bench/perf_lookup measures the p99
// publish latency and the reader-visible staleness under churn.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "netbase/route_update.hpp"
#include "netbase/routing_table.hpp"
#include "trie/flat_multibit_trie.hpp"
#include "trie/updatable_trie.hpp"

namespace vr::trie {

class SnapshotPublisher {
 public:
  /// An immutable published image plus its epoch. Copyable; holding one
  /// keeps the image alive regardless of later publishes.
  struct Snapshot {
    std::shared_ptr<const FlatMultibitTrie> image;
    std::uint64_t version = 0;
  };

  /// What one apply_batch() did and what it cost.
  struct PublishReceipt {
    std::uint64_t version = 0;         ///< version the batch published
    std::size_t updates_applied = 0;
    UpdateCost cost;                   ///< control-plane write accounting
    units::Nanoseconds apply_ns{0.0};  ///< control-plane update time
    /// New-image time: copying the previous image and refilling the
    /// stride nodes the batch touched (grows with touched nodes, plus one
    /// pass over the image).
    units::Nanoseconds build_ns{0.0};
    units::Nanoseconds publish_ns{0.0};  ///< pointer-swap time
  };

  /// Builds and publishes the initial image (version 0) from `base`.
  /// `stride` must be one a FlatMultibitTrie supports (1, 2, 4 or 8).
  SnapshotPublisher(const net::RoutingTable& base, unsigned stride);

  SnapshotPublisher(const SnapshotPublisher&) = delete;
  SnapshotPublisher& operator=(const SnapshotPublisher&) = delete;

  /// Applies one churn batch to the control plane, patches the image and
  /// publishes it as the next version. Single writer only: concurrent
  /// apply_batch calls are a caller bug.
  PublishReceipt apply_batch(std::span<const net::RouteUpdate> updates);

  /// The newest published image. Safe to call from any thread, any number
  /// of threads, concurrently with apply_batch.
  [[nodiscard]] Snapshot acquire() const;

  /// Version of the newest published image.
  [[nodiscard]] std::uint64_t published_version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  /// How many publishes `snapshot` is behind the newest image.
  [[nodiscard]] std::uint64_t staleness_of(const Snapshot& snapshot) const
      noexcept {
    return published_version() - snapshot.version;
  }

  [[nodiscard]] unsigned stride() const noexcept { return stride_; }
  /// Routes currently installed in the control plane.
  [[nodiscard]] std::size_t route_count() const noexcept {
    return control_.route_count();
  }

 private:
  void publish(std::shared_ptr<const FlatMultibitTrie> image,
               std::uint64_t version);

  unsigned stride_;
  UpdatableTrie control_;  // writer-owned control-plane state
  // Writer-owned: the image nodes the current batch touched.
  std::vector<FlatMultibitTrie::NodeKey> touched_;

  mutable std::mutex publish_mutex_;  // also orders version_ stores
  // guarded_by(publish_mutex_)
  std::shared_ptr<const FlatMultibitTrie> current_;
  std::atomic<std::uint64_t> version_{0};
};

}  // namespace vr::trie
