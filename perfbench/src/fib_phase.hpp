// FIB-churn phase: one updater thread pushes seeded route-update batches
// through trie::SnapshotPublisher (stride 8) at a fixed rate, repeating a
// cycle that flaps routes away from the base table and back, while reader
// threads acquire() snapshots and run FlatMultibitTrie::lookup_batch on
// uniform keys. Sampled reader results are checked afterwards against a
// UnibitTrie built from a RoutingTable replay of the same updates.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common.hpp"
#include "netbase/route_update.hpp"
#include "netbase/routing_table.hpp"
#include "trace.hpp"
#include "trie/snapshot_publisher.hpp"

namespace perfbench {

class FibPhase {
 public:
  /// Set-up: base table, update stream, probe keys, reader keys and the
  /// publisher with its initial image (version 0).
  explicit FibPhase(const PhaseOptions& options);

  /// Churns for about `seconds`: the updater publishes at its fixed rate
  /// while the readers look up. Traced slices time every acquire(),
  /// lookup_batch() and apply_batch() call.
  void measure(double seconds, bool traced, Tracer& tracer);

  /// Checks every sampled read and reports over all slices so far.
  void report(Ledger& ledger, PhaseResult& result);

  /// Lookups of an image labelled `version`, as a reader records them.
  struct Sample {
    std::uint64_t version = 0;
    std::vector<vr::net::NextHop> hops;  ///< over probe_keys(version)
  };

  /// Checks samples against UnibitTrie references of the versions they
  /// claim, at most `max_versions` distinct versions. Exposed for the
  /// self-test, which relabels a sample to a newer version (a stale read).
  void check_samples(std::vector<Sample> samples, std::size_t max_versions,
                     Ledger& ledger) const;

  /// Single-threaded deterministic pass: a fresh publisher applies the
  /// first `batches` batches; returns one sample per version.
  [[nodiscard]] std::vector<Sample> deterministic_samples(
      std::size_t batches, Fingerprint* fingerprint) const;

  /// Fault injection for the self-test: for each version 1..batches, the
  /// probe lookups run on the previous (stale) image but are labelled
  /// with the newer version.
  [[nodiscard]] std::vector<Sample> stale_samples(std::size_t batches) const;

 private:
  /// What the churn slices of one kind (untraced or traced) measured.
  struct ChurnStats {
    std::vector<double> window_mlps;
    std::vector<double> publish_us;
    std::vector<double> apply_us;
    std::vector<double> build_us;
    std::vector<double> swap_us;
    std::vector<double> late_us;
    std::uint64_t words_written = 0;
    std::uint64_t updates = 0;
    std::uint64_t lookups = 0;
    std::uint64_t acquires = 0;
    double acquire_s = 0.0;
    double lookup_s = 0.0;
    std::vector<std::uint64_t> staleness;  ///< snapshots per staleness
  };

  [[nodiscard]] std::span<const vr::net::RouteUpdate> batch(
      std::size_t index) const;
  /// Probe keys of `version`: an address inside every prefix the batch
  /// that produced it touched, plus uniform addresses.
  [[nodiscard]] std::span<const vr::net::Ipv4> probe_keys(
      std::uint64_t version) const;

  std::size_t batch_size_;
  std::size_t batch_count_;
  std::size_t readers_;
  vr::net::RoutingTable base_;
  std::vector<vr::net::RouteUpdate> stream_;  ///< one churn cycle
  std::vector<std::vector<vr::net::Ipv4>> probes_;  ///< per version
  std::vector<vr::net::Ipv4> keys_;                 ///< reader keys
  std::unique_ptr<vr::trie::SnapshotPublisher> publisher_;
  std::size_t next_batch_ = 0;
  ChurnStats untraced_;
  ChurnStats traced_;
  std::vector<Sample> samples_;  ///< reader reads kept for checking
  std::size_t reader_failures_ = 0;
};

}  // namespace perfbench
