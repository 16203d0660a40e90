#include "fib_phase.hpp"

#include <algorithm>
#include <cmath>
#include <atomic>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "dataplane/frame_gen.hpp"
#include "netbase/table_gen.hpp"
#include "netbase/update_gen.hpp"
#include "trie/unibit_trie.hpp"

namespace perfbench {

namespace {

using namespace vr;

constexpr unsigned kStride = 8;
/// Publishes per second the updater is paced at (an open loop: a batch is
/// due every 1/rate seconds whether or not the previous one was fast).
constexpr double kPublishRateHz = 250.0;
/// Keys one reader resolves per acquired snapshot.
constexpr std::size_t kReaderBatch = 8192;
/// Uniform keys the readers cycle through: 256 KiB, resident in a core's
/// private cache, so lookup throughput does not ride on the shared cache.
constexpr std::size_t kReaderKeys = std::size_t{1} << 16;
constexpr std::size_t kUniformProbes = 16;
/// Updates in the forward half of one churn cycle (a multiple of every
/// batch size).
constexpr std::size_t kCycleUpdates = 2048;
/// A reader records one check sample every this many snapshots.
constexpr std::uint64_t kSampleEvery = 64;
constexpr std::size_t kMaxSamplesPerReader = 4096;
/// Window over which one lookup-throughput sample is taken.
constexpr double kWindowS = 0.25;
/// Staleness values counted apart; larger ones share the last count.
constexpr std::size_t kStalenessBuckets = 64;

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return dataplane::FrameGenerator::derive_seed(seed, salt);
}

void apply_to_table(net::RoutingTable& table, const net::RouteUpdate& u) {
  if (u.kind == net::RouteUpdate::Kind::kAnnounce) {
    table.add(u.route);
  } else {
    table.remove(u.route.prefix);
  }
}

/// The update that puts `prefix` back the way `table` has it now.
net::RouteUpdate undo_of(const net::RoutingTable& table,
                         const net::Prefix& prefix) {
  const std::span<const net::Route> routes = table.routes();
  const auto it = std::lower_bound(
      routes.begin(), routes.end(), prefix,
      [](const net::Route& r, const net::Prefix& p) { return r.prefix < p; });
  if (it != routes.end() && it->prefix == prefix) {
    return {net::RouteUpdate::Kind::kAnnounce, *it};
  }
  return {net::RouteUpdate::Kind::kWithdraw, net::Route{prefix, net::kNoRoute}};
}

/// The smallest value at or below which a share `q` of the values counted
/// in `counts` (counts[v] = how often v was seen) lie; 0 when empty.
double count_quantile(const std::vector<std::uint64_t>& counts, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t v = 0; v < counts.size(); ++v) {
    seen += counts[v];
    if (static_cast<double>(seen) >= rank) return static_cast<double>(v);
  }
  return static_cast<double>(counts.size() - 1);
}

/// What one reader thread did.
struct ReaderOut {
  std::atomic<std::uint64_t> lookups{0};
  std::uint64_t sink = 0;
  std::uint64_t acquires = 0;
  double acquire_s = 0.0;
  double lookup_s = 0.0;
  /// Snapshots acquired per staleness: counts, not a list of values, so
  /// the memory a reader holds (and peak_rss_mb) does not grow with the
  /// lookup throughput.
  std::vector<std::uint64_t> staleness =
      std::vector<std::uint64_t>(kStalenessBuckets, 0);
  std::vector<FibPhase::Sample> samples;
  bool failed = false;  ///< the reader stopped on an exception
};

}  // namespace

FibPhase::FibPhase(const PhaseOptions& options)
    : batch_size_(options.heavy ? 64 : 16),
      readers_(std::min<std::size_t>(
          3, std::max<std::size_t>(1, allowed_cpus().size() - 1))) {
  batch_count_ =
      static_cast<std::size_t>(kPublishRateHz * options.fib_seconds) + 64;
  base_ = net::SyntheticTableGenerator(net::TableProfile{})
              .generate(derive(options.seed, 200));
  // One churn cycle: a seeded forward stream from the base table, then the
  // same updates undone in reverse order (every touched route flaps back),
  // so the table is the base table again at the end of each cycle and the
  // updater repeats the cycle. The publisher thus rebuilds images of one
  // steady size. A stream that only moves forward replaces the base routes
  // with prefixes from ever new provider blocks: the image grows about
  // fourfold over a 45 s run, and how fast depends on the seed.
  net::UpdateStreamConfig config;
  config.update_count = kCycleUpdates;
  stream_ = net::UpdateStreamGenerator(config).generate(
      base_, derive(options.seed, 1000));
  net::RoutingTable table = base_;
  std::vector<net::RouteUpdate> undo;
  undo.reserve(stream_.size());
  for (const net::RouteUpdate& u : stream_) {
    undo.push_back(undo_of(table, u.route.prefix));
    apply_to_table(table, u);
  }
  stream_.insert(stream_.end(), undo.rbegin(), undo.rend());

  Rng rng(derive(options.seed, 202));
  probes_.resize(batch_count_ + 1);
  for (std::size_t v = 0; v <= batch_count_; ++v) {
    std::vector<net::Ipv4>& probe = probes_[v];
    if (v > 0) {
      for (const net::RouteUpdate& u : batch(v - 1)) {
        const unsigned length = u.route.prefix.length();
        const std::uint32_t host =
            length >= 32 ? 0u
                         : static_cast<std::uint32_t>(rng.next_u64()) &
                               (0xffffffffu >> length);
        probe.emplace_back(u.route.prefix.address().value() | host);
      }
    }
    for (std::size_t i = 0; i < kUniformProbes; ++i) {
      probe.emplace_back(static_cast<std::uint32_t>(rng.next_u64()));
    }
  }
  keys_.reserve(kReaderKeys);
  for (std::size_t i = 0; i < kReaderKeys; ++i) {
    keys_.emplace_back(static_cast<std::uint32_t>(rng.next_u64()));
  }
  publisher_ = std::make_unique<trie::SnapshotPublisher>(base_, kStride);
}

std::span<const net::RouteUpdate> FibPhase::batch(std::size_t index) const {
  const std::size_t cycle_batches = stream_.size() / batch_size_;
  return {stream_.data() + (index % cycle_batches) * batch_size_,
          batch_size_};
}

std::span<const net::Ipv4> FibPhase::probe_keys(std::uint64_t version) const {
  return probes_.at(version);
}

void FibPhase::check_samples(std::vector<Sample> samples,
                             std::size_t max_versions, Ledger& ledger) const {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.version < b.version;
            });
  std::vector<std::uint64_t> versions;
  for (const Sample& s : samples) {
    if (versions.empty() || versions.back() != s.version) {
      versions.push_back(s.version);
    }
  }
  // Evenly spaced subset, always keeping the newest version.
  std::vector<std::uint64_t> chosen;
  if (versions.size() <= max_versions) {
    chosen = versions;
  } else {
    for (std::size_t i = 0; i < max_versions; ++i) {
      chosen.push_back(
          versions[i * (versions.size() - 1) / (max_versions - 1)]);
    }
  }
  net::RoutingTable table = base_;
  std::uint64_t applied = 0;
  std::size_t next = 0;
  for (const std::uint64_t version : chosen) {
    if (!ledger.check(version <= batch_count_,
                      "fib: sample claims unknown version " +
                          std::to_string(version))) {
      continue;
    }
    for (; applied < version; ++applied) {
      for (const net::RouteUpdate& u : batch(applied)) apply_to_table(table, u);
    }
    const trie::UnibitTrie reference(table);
    const std::span<const net::Ipv4> keys = probe_keys(version);
    while (next < samples.size() && samples[next].version < version) ++next;
    for (; next < samples.size() && samples[next].version == version; ++next) {
      const Sample& s = samples[next];
      bool match = s.hops.size() == keys.size();
      for (std::size_t i = 0; match && i < keys.size(); ++i) {
        const net::NextHop expected =
            reference.lookup(keys[i]).value_or(net::kNoRoute);
        match = s.hops[i] == expected;
      }
      ledger.check(match, "fib: lookups of version " +
                              std::to_string(version) +
                              " differ from the replayed UnibitTrie");
    }
  }
}

std::vector<FibPhase::Sample> FibPhase::deterministic_samples(
    std::size_t batches, Fingerprint* fingerprint) const {
  trie::SnapshotPublisher publisher(base_, kStride);
  std::vector<Sample> samples;
  const auto sample_now = [&] {
    const trie::SnapshotPublisher::Snapshot snap = publisher.acquire();
    samples.push_back({snap.version, snap.image->lookup_batch(
                                         probe_keys(snap.version))});
    for (const net::NextHop hop : samples.back().hops) {
      fingerprint->add(std::uint64_t{hop});
    }
  };
  sample_now();
  for (std::size_t b = 0; b < batches && b < batch_count_; ++b) {
    const trie::SnapshotPublisher::PublishReceipt receipt =
        publisher.apply_batch(batch(b));
    fingerprint->add(receipt.version);
    fingerprint->add(static_cast<std::uint64_t>(receipt.updates_applied));
    fingerprint->add(static_cast<std::uint64_t>(receipt.cost.nodes_created));
    fingerprint->add(static_cast<std::uint64_t>(receipt.cost.nodes_removed));
    fingerprint->add(static_cast<std::uint64_t>(receipt.cost.words_written));
    sample_now();
  }
  fingerprint->add(static_cast<std::uint64_t>(publisher.route_count()));
  return samples;
}

std::vector<FibPhase::Sample> FibPhase::stale_samples(
    std::size_t batches) const {
  trie::SnapshotPublisher publisher(base_, kStride);
  std::vector<Sample> samples;
  for (std::size_t b = 0; b < batches && b < batch_count_; ++b) {
    const trie::SnapshotPublisher::Snapshot stale = publisher.acquire();
    (void)publisher.apply_batch(batch(b));
    const std::uint64_t claimed = stale.version + 1;
    samples.push_back(
        {claimed, stale.image->lookup_batch(probe_keys(claimed))});
  }
  return samples;
}

void FibPhase::measure(double seconds, bool traced, Tracer& tracer) {
  // The updater keeps one CPU and the readers share the others, so no
  // reader ever preempts a publish. The updater takes the last CPU: the
  // first one serves most of the device interrupts.
  const std::size_t cpus = allowed_cpus().size();
  const std::size_t reader_cpus = cpus > 1 ? cpus - 1 : 1;
  pin_to_cpu(cpus > 1 ? cpus - 1 : 0);
  ChurnStats& stats = traced ? traced_ : untraced_;
  std::vector<std::unique_ptr<ReaderOut>> outs;
  for (std::size_t r = 0; r < readers_; ++r) {
    outs.push_back(std::make_unique<ReaderOut>());
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Stops and joins the readers on every path out of this function.
  struct Joiner {
    std::atomic<bool>& stop;
    std::vector<std::thread>& threads;
    ~Joiner() {
      stop.store(true, std::memory_order_release);
      for (std::thread& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{stop, threads};
  for (std::size_t r = 0; r < readers_; ++r) {
    threads.emplace_back([&, r] {
      ReaderOut& out = *outs[r];
      pin_to_cpus(0, reader_cpus);
      try {
        std::size_t offset = (r * kReaderKeys) / readers_;
        std::uint64_t iteration = 0;
        while (!stop.load(std::memory_order_acquire)) {
          if (offset + kReaderBatch > keys_.size()) offset = 0;
          const std::span<const net::Ipv4> keys(keys_.data() + offset,
                                                kReaderBatch);
          offset += kReaderBatch;
          trie::SnapshotPublisher::Snapshot snap;
          std::vector<net::NextHop> hops;
          if (traced) {
            Tracer::Span acquire(tracer, "trie.snapshot.acquire", "trie");
            snap = publisher_->acquire();
            out.acquire_s += acquire.stop();
            Tracer::Span lookup(tracer, "trie.lookup_batch", "trie");
            hops = snap.image->lookup_batch(keys);
            out.lookup_s += lookup.stop();
          } else {
            snap = publisher_->acquire();
            hops = snap.image->lookup_batch(keys);
          }
          for (const net::NextHop hop : hops) out.sink += hop;
          ++out.acquires;
          out.lookups.fetch_add(kReaderBatch, std::memory_order_relaxed);
          ++out.staleness[std::min<std::uint64_t>(
              publisher_->staleness_of(snap), kStalenessBuckets - 1)];
          if (++iteration % kSampleEvery == 0 &&
              out.samples.size() < kMaxSamplesPerReader) {
            out.samples.push_back(
                {snap.version,
                 snap.image->lookup_batch(probe_keys(snap.version))});
          }
        }
      } catch (const std::exception&) {
        out.failed = true;
      }
    });
  }
  const auto total_lookups = [&] {
    std::uint64_t total = 0;
    for (const auto& out : outs) {
      total += out->lookups.load(std::memory_order_relaxed);
    }
    return total;
  };

  // The updater: one batch due every 1/rate seconds.
  const Clock::time_point start = Clock::now();
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kPublishRateHz));
  Clock::time_point due = start;
  Clock::time_point window_start = start;
  std::uint64_t window_lookups = 0;
  while (seconds_since(start) < seconds && next_batch_ < batch_count_) {
    std::this_thread::sleep_until(due);
    const Clock::time_point woke = Clock::now();
    trie::SnapshotPublisher::PublishReceipt receipt;
    if (traced) {
      Tracer::Span span(tracer, "trie.snapshot.apply_batch", "trie");
      receipt = publisher_->apply_batch(batch(next_batch_));
    } else {
      receipt = publisher_->apply_batch(batch(next_batch_));
    }
    ++next_batch_;
    stats.late_us.push_back(
        std::chrono::duration<double, std::micro>(woke - due).count());
    const double apply_us = receipt.apply_ns.value() / 1e3;
    const double build_us = receipt.build_ns.value() / 1e3;
    const double swap_us = receipt.publish_ns.value() / 1e3;
    stats.apply_us.push_back(apply_us);
    stats.build_us.push_back(build_us);
    stats.swap_us.push_back(swap_us);
    stats.publish_us.push_back(apply_us + build_us + swap_us);
    stats.words_written += receipt.cost.words_written;
    stats.updates += receipt.updates_applied;
    due += period;
    const Clock::time_point now = Clock::now();
    const double window_s =
        std::chrono::duration<double>(now - window_start).count();
    if (window_s >= kWindowS) {
      const std::uint64_t lookups = total_lookups();
      stats.window_mlps.push_back(
          static_cast<double>(lookups - window_lookups) / window_s / 1e6);
      window_lookups = lookups;
      window_start = now;
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  std::uint64_t sink = 0;
  for (const auto& out : outs) {
    stats.lookups += out->lookups.load();
    stats.acquires += out->acquires;
    stats.acquire_s += out->acquire_s;
    stats.lookup_s += out->lookup_s;
    sink += out->sink;
    if (out->failed) ++reader_failures_;
    stats.staleness.resize(kStalenessBuckets, 0);
    for (std::size_t v = 0; v < kStalenessBuckets; ++v) {
      stats.staleness[v] += out->staleness[v];
    }
    for (Sample& sample : out->samples) {
      samples_.push_back(std::move(sample));
    }
  }
  g_sink = sink;
}

void FibPhase::report(Ledger& ledger, PhaseResult& result) {
  ledger.attempt(untraced_.lookups + untraced_.updates + traced_.lookups +
                 traced_.updates);
  const double mlps = median(untraced_.window_mlps);
  result.end_to_end["lookup_mlps"] = {mlps, "Mlookups/s"};
  result.end_to_end["publish_p50_us"] = {quantile(untraced_.publish_us, 0.5),
                                         "us"};
  result.threads_used = readers_ + 1;
  result.regime["fib.readers"] = static_cast<double>(readers_);
  result.regime["fib.batch_size"] = static_cast<double>(batch_size_);
  result.regime["fib.cycle_batches"] =
      static_cast<double>(stream_.size() / batch_size_);
  result.regime["fib.publish_rate_hz"] = kPublishRateHz;
  result.regime["fib.publishes"] =
      static_cast<double>(untraced_.publish_us.size());
  result.regime["fib.publish_samples_beyond_p99"] =
      std::floor(static_cast<double>(untraced_.publish_us.size()) * 0.01);
  result.regime["fib.publish_p99_us"] = quantile(untraced_.publish_us, 0.99);
  result.regime["fib.updater_late_p99_us"] = quantile(untraced_.late_us, 0.99);
  result.regime["fib.samples_checked"] = static_cast<double>(samples_.size());

  ledger.check(reader_failures_ == 0, "fib: a reader stopped on an exception");
  // Every sampled reader read, and the publisher's newest image.
  {
    const trie::SnapshotPublisher::Snapshot snap = publisher_->acquire();
    samples_.push_back(
        {snap.version, snap.image->lookup_batch(probe_keys(snap.version))});
  }
  check_samples(std::move(samples_), 48, ledger);
  samples_.clear();

  // Deterministic pass: the fingerprint, checked like the reader samples.
  Fingerprint fp;
  std::vector<Sample> fixed = deterministic_samples(32, &fp);
  ledger.attempt(fixed.size());
  check_samples(std::move(fixed), 64, ledger);
  result.fingerprint.add(fp.value());

  if (traced_.publish_us.empty()) return;
  MetricMap& m = result.per_layer;
  const ChurnStats& t = traced_;
  const auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  m["trie.lookup_batch.ns_per_lookup"] = {
      per(t.lookup_s * 1e9, static_cast<double>(t.lookups)), "ns"};
  m["trie.snapshot.acquire_ns"] = {
      per(t.acquire_s * 1e9, static_cast<double>(t.acquires)), "ns"};
  m["trie.publisher.apply_us"] = {median(t.apply_us), "us"};
  m["trie.publisher.build_us"] = {median(t.build_us), "us"};
  m["trie.publisher.swap_us"] = {median(t.swap_us), "us"};
  double build = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < t.publish_us.size(); ++i) {
    build += t.build_us[i];
    total += t.publish_us[i];
  }
  m["trie.publisher.build_share"] = {per(build, total), "share"};
  m["trie.publisher.words_written_per_update"] = {
      per(static_cast<double>(t.words_written), static_cast<double>(t.updates)),
      "count"};
  m["trie.publisher.publish_p95_us"] = {quantile(untraced_.publish_us, 0.95),
                                        "us"};
  m["trie.publisher.publish_p99_us"] = {quantile(untraced_.publish_us, 0.99),
                                        "us"};
  m["trie.snapshot.staleness_p99"] = {count_quantile(t.staleness, 0.99), "versions"};
  m["trace.fib.overhead_share"] = {per(mlps, median(t.window_mlps)) - 1.0,
                                   "share"};
}

}  // namespace perfbench
