#include "router_phase.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "dataplane/frame_gen.hpp"
#include "netbase/table_gen.hpp"
#include "trie/memory_layout.hpp"
#include "trie/stage_mapping.hpp"
#include "trie/trie_stats.hpp"

namespace perfbench {

namespace {

using namespace vr;

constexpr std::size_t kVnCount = 8;
constexpr std::size_t kStages = 28;
constexpr units::Megahertz kFreqMhz{300.0};
/// Prefixes per VN table.
constexpr std::size_t kPrefixesPerVn = 725;
/// Simulated arrival window of the frame stream, per regime. The light
/// (sparse, duty-cycled) stream carries ~0.22 frames per cycle, the heavy
/// one ~0.95, so both streams hold ~22 k frames: long enough that the
/// seed moves per-frame cost little, short enough that a pass's frames and
/// egress records stay near the 2 MiB private cache of one core.
constexpr std::uint64_t kLightCycles = 100000;
constexpr std::uint64_t kHeavyCycles = 24000;

power::EngineSpec engine_spec_of(const trie::TrieStats& stats,
                                 std::size_t nhi_width) {
  const trie::StageMapping mapping(stats.nodes_per_level.size(), kStages,
                                   trie::MappingPolicy::kOneLevelPerStage);
  const trie::StageMemory memory = trie::stage_memory(
      trie::occupancy(stats, mapping), trie::NodeEncoding{}, nhi_width);
  power::EngineSpec spec;
  for (std::size_t s = 0; s < kStages; ++s) {
    spec.stage_bits.push_back(memory.stage_bits(s));
  }
  return spec;
}

/// Per-VN busy share of the lookup stages: the µ the run exhibited.
std::vector<double> measured_mu(const power::ActivityCounters& activity) {
  const std::size_t stages = activity.stage_count();
  std::vector<double> mu(activity.vn_count(), 0.0);
  if (activity.cycles == 0 || stages == 0) return mu;
  for (std::size_t v = 0; v < activity.vn_count(); ++v) {
    std::uint64_t busy = 0;
    for (std::size_t s = 0; s < stages; ++s) busy += activity.busy(v, s);
    mu[v] = static_cast<double>(busy) / (static_cast<double>(stages) *
                                         static_cast<double>(activity.cycles));
  }
  return mu;
}

void add_activity(Fingerprint& fp, const power::ActivityCounters& a) {
  fp.add(a.cycles);
  fp.add(a.parser_headers);
  fp.add(a.buffer_writes);
  fp.add(a.buffer_reads);
  fp.add(a.crossbar_traversals);
  fp.add(a.arbiter_decisions);
  fp.add(a.arbiter_comparisons);
  fp.add(a.editor_rewrites);
  fp.add(a.stage_busy);
  fp.add(a.stage_reads);
}

void add_power(Fingerprint& fp, const power::ActivityPower& p) {
  for (const units::Watts w : p.per_vn_w) fp.add(w.value());
  for (const units::Watts w : p.per_vn_overhead_w) fp.add(w.value());
  fp.add(p.logic_w.value());
  fp.add(p.memory_w.value());
  fp.add(p.memory_gated_w.value());
  fp.add(p.overhead_w().value());
}

void add_egress(Fingerprint& fp,
                const std::vector<dataplane::EgressRecord>& egress) {
  fp.add(static_cast<std::uint64_t>(egress.size()));
  for (const dataplane::EgressRecord& r : egress) {
    fp.add(r.cycle);
    fp.add(static_cast<std::uint64_t>(r.vnid));
    fp.add(static_cast<std::uint64_t>(r.port));
    fp.add(static_cast<std::uint64_t>(r.bytes));
    fp.add(r.queueing_cycles);
  }
}

void add_stats(Fingerprint& fp, const dataplane::ParserStats& parser,
               const dataplane::EditorStats& editor,
               const dataplane::SchedulerStats& scheduler) {
  fp.add(parser.accepted);
  fp.add(parser.malformed);
  fp.add(parser.bad_checksum);
  fp.add(parser.ttl_expired);
  fp.add(editor.forwarded);
  fp.add(editor.no_route);
  fp.add(editor.ttl_expired);
  fp.add(scheduler.enqueued);
  fp.add(scheduler.transmitted);
  fp.add(scheduler.tail_drops);
  fp.add(scheduler.rejected);
  fp.add(scheduler.bytes_per_vn);
}

/// The simulated statistics of one per-packet run.
std::uint64_t full_fingerprint(const dataplane::FullRouterResult& r) {
  Fingerprint fp;
  add_egress(fp, r.egress);
  add_stats(fp, r.parser, r.editor, r.scheduler);
  fp.add(r.cycles);
  add_activity(fp, r.activity);
  return fp.value();
}

std::uint64_t cycle_fingerprint(const dataplane::cycle::CycleResult& r) {
  Fingerprint fp;
  add_egress(fp, r.egress);
  add_stats(fp, r.parser, r.editor, r.scheduler);
  fp.add(r.cycles);
  fp.add(r.cycle.flits_in);
  fp.add(r.cycle.flits_out);
  fp.add(r.cycle.flits_dropped);
  fp.add(r.cycle.vc_alloc_stalls);
  fp.add(r.cycle.credit_stalls);
  fp.add(r.cycle.arbiter_grants);
  fp.add(r.cycle.arbiter_comparisons);
  add_activity(fp, r.activity);
  return fp.value();
}

std::uint64_t sum(const std::vector<std::uint64_t>& values) {
  std::uint64_t total = 0;
  for (const std::uint64_t v : values) total += v;
  return total;
}

/// Stage-pass timings and counts of one staged replay.
struct StagedTimes {
  double parser_s = 0.0;
  double lookup_s = 0.0;
  double editor_s = 0.0;
  double scheduler_s = 0.0;
  std::uint64_t edited = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t refused_offers = 0;
};

/// Replays run_full_router's cycle loop one stage at a time through the
/// public stage APIs (Parser::accept, VirtualRouter::offer/tick,
/// Editor::edit, DrrScheduler::enqueue/tick), each stage as one timed pass
/// over the whole stream. The lookup stage never sees backpressure from
/// the editor or the scheduler, so the passes issue exactly the calls the
/// interleaved loop issues and yield the same egress and activity.
dataplane::FullRouterResult staged_replay(
    pipeline::VirtualRouter& lookup,
    const std::vector<dataplane::IngressFrame>& frames,
    const dataplane::FullRouterConfig& config, Tracer& tracer,
    StagedTimes* times) {
  using dataplane::ParsedPacket;
  dataplane::FullRouterResult result;
  const std::size_t vn_count = lookup.vn_count();
  power::ActivityCounters activity(vn_count, lookup.engine(0).stage_count());

  struct Arrival {
    std::uint64_t cycle = 0;
    ParsedPacket packet;
  };
  struct Completion {
    std::uint64_t cycle = 0;
    ParsedPacket packet;
    std::optional<net::NextHop> next_hop;
  };
  struct Forward {
    std::uint64_t cycle = 0;
    dataplane::ForwardedPacket packet;
  };

  // 1. Parser.
  std::vector<Arrival> arrivals;
  arrivals.reserve(frames.size());
  dataplane::Parser parser;
  {
    Tracer::Span span(tracer, "dataplane.parser.accept", "dataplane");
    for (const dataplane::IngressFrame& frame : frames) {
      if (frame.vnid < vn_count) ++activity.parser_headers[frame.vnid];
      if (const auto parsed =
              parser.accept(frame.vnid, frame.header, frame.payload_bytes)) {
        ++activity.buffer_writes[parsed->vnid];
        arrivals.push_back({frame.cycle, *parsed});
      }
    }
    times->parser_s += span.stop();
  }

  // 2. Lookup, with run_full_router's backlog and retry discipline. The
  //    loop also runs while unparsed frames are still due, as the
  //    interleaved loop does.
  std::vector<Completion> completions;
  completions.reserve(arrivals.size());
  std::uint64_t cycle = 0;
  {
    Tracer::Span span(tracer, "pipeline.lookup.offer_tick", "pipeline");
    std::vector<std::deque<ParsedPacket>> awaiting(vn_count);
    std::deque<ParsedPacket> backlog;
    std::vector<pipeline::LookupResult> done;
    const std::uint64_t frames_until = frames.empty() ? 0
                                                      : frames.back().cycle + 1;
    std::size_t next = 0;
    while (cycle < frames_until || next < arrivals.size() ||
           !backlog.empty() || !lookup.drained()) {
      while (next < arrivals.size() && arrivals[next].cycle <= cycle) {
        backlog.push_back(arrivals[next].packet);
        ++next;
      }
      for (std::size_t burst = 0; burst < backlog.size();) {
        const ParsedPacket& head = backlog[burst];
        if (lookup.offer(net::Packet{head.header.destination, head.vnid})) {
          ++activity.buffer_reads[head.vnid];
          awaiting[head.vnid].push_back(head);
          backlog.erase(backlog.begin() + static_cast<std::ptrdiff_t>(burst));
        } else {
          ++burst;
          ++times->refused_offers;
        }
      }
      done.clear();
      lookup.tick(&done);
      for (const pipeline::LookupResult& d : done) {
        auto& fifo = awaiting[d.packet.vnid];
        completions.push_back({cycle, fifo.front(), d.next_hop});
        fifo.pop_front();
      }
      ++cycle;
    }
    times->lookup_s += span.stop();
  }
  const std::uint64_t lookup_cycles = cycle;

  // 3. Editor.
  std::vector<Forward> forwards;
  forwards.reserve(completions.size());
  dataplane::Editor editor;
  {
    Tracer::Span span(tracer, "dataplane.editor.edit", "dataplane");
    for (const Completion& c : completions) {
      if (const auto forwarded = editor.edit(c.packet, c.next_hop)) {
        ++activity.editor_rewrites[forwarded->vnid];
        ++activity.crossbar_traversals[forwarded->vnid];
        forwards.push_back({c.cycle, *forwarded});
      }
    }
    times->editor_s += span.stop();
  }

  // 4. DRR egress: enqueue at the completion cycle, tick every cycle.
  dataplane::DrrScheduler scheduler(config.scheduler);
  cycle = 0;
  {
    Tracer::Span span(tracer, "dataplane.scheduler.enqueue_tick",
                      "dataplane");
    std::size_t next = 0;
    while (cycle < lookup_cycles || !scheduler.empty()) {
      while (next < forwards.size() && forwards[next].cycle == cycle) {
        if (scheduler.enqueue(forwards[next].packet, cycle)) {
          ++activity.buffer_writes[forwards[next].packet.vnid];
        }
        ++next;
      }
      const std::size_t before = result.egress.size();
      scheduler.tick(cycle, &result.egress);
      for (std::size_t i = before; i < result.egress.size(); ++i) {
        ++activity.buffer_reads[result.egress[i].vnid];
      }
      ++cycle;
    }
    times->scheduler_s += span.stop();
  }

  // The interleaved loop keeps ticking the (idle) lookup stage while the
  // egress drains; those ticks are lookup work too.
  {
    Tracer::Span span(tracer, "pipeline.lookup.drain_tick", "pipeline");
    std::vector<pipeline::LookupResult> done;
    for (std::uint64_t c = lookup_cycles; c < cycle; ++c) lookup.tick(&done);
    times->lookup_s += span.stop();
  }

  times->edited += completions.size();
  times->enqueued += forwards.size();
  result.parser = parser.stats();
  result.editor = editor.stats();
  result.scheduler = scheduler.stats();
  result.cycles = cycle;
  activity.cycles = cycle;
  activity.arbiter_decisions = result.scheduler.arbiter_grants_per_vn;
  activity.arbiter_comparisons = result.scheduler.arbiter_comparisons_per_vn;
  dataplane::fold_engine_activity(lookup, &activity);
  result.activity = std::move(activity);
  return result;
}

}  // namespace

RouterPhase::RouterPhase(const PhaseOptions& options) {
  net::TableProfile profile;
  profile.prefix_count = kPrefixesPerVn;
  const net::SyntheticTableGenerator table_gen(profile);
  for (std::size_t v = 0; v < kVnCount; ++v) {
    tables_.push_back(table_gen.generate(
        dataplane::FrameGenerator::derive_seed(options.seed, 100 + v)));
  }
  std::vector<const trie::UnibitTrie*> trie_ptrs;
  tries_.reserve(kVnCount);
  for (const net::RoutingTable& table : tables_) {
    tries_.push_back(trie::UnibitTrie(table).leaf_pushed());
  }
  for (const trie::UnibitTrie& t : tries_) {
    views_.emplace_back(t);
    trie_ptrs.push_back(&t);
    engines_.push_back(engine_spec_of(trie::compute_stats(t), 1));
  }
  merged_ = std::make_unique<virt::MergedTrie>(
      std::span<const trie::UnibitTrie* const>(trie_ptrs));
  merged_engine_ = engine_spec_of(merged_->stats_as_trie(), kVnCount);

  dataplane::FrameGenConfig frame_config;
  net::TrafficConfig& traffic = frame_config.traffic;
  if (options.heavy) {
    // Near one lookup per cycle, geometric VN skew (VN 0 carries half).
    traffic.cycles = kHeavyCycles;
    traffic.load = 0.95;
    double weight = 1.0;
    for (std::size_t v = 0; v < kVnCount; ++v, weight *= 0.5) {
      traffic.vn_weights.push_back(weight);
    }
  } else {
    // On/off bursts: arrivals only in the first quarter of every
    // 2000-cycle period, at 0.9 per cycle while on (mean 0.225).
    traffic.cycles = kLightCycles;
    traffic.load = 0.9;
    traffic.duty_on_fraction = 0.25;
    traffic.duty_period = 2000;
  }
  frame_config.corrupt_fraction = 0.01;
  frame_config.expiring_ttl_fraction = 0.01;
  std::vector<const net::RoutingTable*> table_ptrs;
  for (const net::RoutingTable& t : tables_) table_ptrs.push_back(&t);
  const dataplane::FrameGenerator frame_gen(frame_config, table_ptrs);
  frames_ = frame_gen.generate(
      dataplane::FrameGenerator::derive_seed(options.seed, 1));
  std::stable_sort(frames_.begin(), frames_.end(),
                   [](const dataplane::IngressFrame& a,
                      const dataplane::IngressFrame& b) {
                     return a.cycle < b.cycle;
                   });

  full_config_.scheduler.vn_count = kVnCount;
  full_config_.scheduler.port_count = 16;
  full_config_.scheduler.queue_capacity = 256;
  cycle_config_.vc.policy = dataplane::cycle::VcPolicy::kDynamic;
  cycle_config_.vc.vc_count = 2 * kVnCount;
  cycle_config_.vc.vn_count = kVnCount;
  cycle_config_.vc.dynamic_floor = 1;
  cycle_config_.scheduler = full_config_.scheduler;
}

std::unique_ptr<pipeline::VirtualRouter> RouterPhase::make_lookup(
    bool merged) const {
  if (merged) {
    return std::make_unique<pipeline::MergedRouter>(*merged_, kStages);
  }
  return std::make_unique<pipeline::SeparateRouter>(views_, kStages);
}

power::ActivityPower RouterPhase::price(
    const power::ActivityCounters& activity, bool merged) const {
  power::ModelContext ctx;
  ctx.scheme = merged ? power::Scheme::kMerged : power::Scheme::kSeparate;
  ctx.vn_count = kVnCount;
  if (merged) {
    ctx.merged_engine = &merged_engine_;
  } else {
    ctx.engines = engines_;
  }
  ctx.op.grade = fpga::SpeedGrade::kMinus2;
  ctx.op.bram_policy = fpga::BramPolicy::kMixed;
  ctx.op.freq_mhz = kFreqMhz;
  ctx.op.utilization = measured_mu(activity);
  ctx.activity = &activity;
  return activity_model_.estimate(ctx);
}

void RouterPhase::check_conservation(std::uint64_t transmitted,
                                     const dataplane::ParserStats& parser,
                                     const dataplane::EditorStats& editor,
                                     std::uint64_t tail_drops,
                                     const char* run,
                                     Ledger& ledger) const {
  const std::uint64_t accounted = parser.dropped() + editor.no_route +
                                  editor.ttl_expired + tail_drops +
                                  transmitted;
  ledger.check(accounted == frames_.size(),
               std::string("router: frame conservation broken (") + run +
                   "): " + std::to_string(accounted) + " accounted of " +
                   std::to_string(frames_.size()) + " offered");
}

void RouterPhase::check_egress(
    const std::vector<dataplane::EgressRecord>& egress, const char* run,
    Ledger& ledger) {
  if (expected_egress_.empty()) {
    // Reference: a fresh parser over the stream, then the uni-bit trie of
    // each VN's table (not leaf-pushed: an independent lookup path).
    std::vector<trie::UnibitTrie> reference;
    for (const net::RoutingTable& table : tables_) {
      reference.emplace_back(table);
    }
    expected_egress_.resize(kVnCount);
    dataplane::Parser parser;
    for (const dataplane::IngressFrame& frame : frames_) {
      const auto parsed =
          parser.accept(frame.vnid, frame.header, frame.payload_bytes);
      if (!parsed) continue;
      const auto hop =
          reference[parsed->vnid].lookup(parsed->header.destination);
      if (!hop) continue;
      expected_egress_[parsed->vnid].emplace_back(
          *hop, net::Ipv4Header::kSize + parsed->payload_bytes);
    }
    for (auto& list : expected_egress_) std::sort(list.begin(), list.end());
  }
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> actual(
      kVnCount);
  for (const dataplane::EgressRecord& r : egress) {
    if (r.vnid >= kVnCount) {
      ledger.check(false, std::string("router: egress VN out of range (") +
                              run + ")");
      continue;
    }
    actual[r.vnid].emplace_back(r.port, r.bytes);
  }
  for (std::size_t v = 0; v < kVnCount; ++v) {
    std::sort(actual[v].begin(), actual[v].end());
    ledger.check(actual[v] == expected_egress_[v],
                 std::string("router: VN ") + std::to_string(v) +
                     " egress differs from the UnibitTrie prediction (" +
                     run + ")");
  }
}

dataplane::FullRouterResult RouterPhase::run_merged_once() {
  pipeline::MergedRouter lookup(*merged_, kStages);
  return dataplane::run_full_router(lookup, frames_, full_config_);
}

RouterPhase::PassTimes RouterPhase::untraced_pass(Ledger& ledger,
                                                  bool verify_egress) {
  PassTimes t;
  Fingerprint fp;
  ledger.attempt(3 * frames_.size());
  {
    const Clock::time_point start = Clock::now();
    pipeline::SeparateRouter vs(views_, kStages);
    const dataplane::FullRouterResult vs_result =
        dataplane::run_full_router(vs, frames_, full_config_);
    const power::ActivityPower vs_power = price(vs_result.activity, false);
    pipeline::MergedRouter vm(*merged_, kStages);
    const dataplane::FullRouterResult vm_result =
        dataplane::run_full_router(vm, frames_, full_config_);
    const power::ActivityPower vm_power = price(vm_result.activity, true);
    t.full_router_s = seconds_since(start);

    fp.add(full_fingerprint(vs_result));
    add_power(fp, vs_power);
    fp.add(full_fingerprint(vm_result));
    add_power(fp, vm_power);
    for (const auto* r : {&vs_result, &vm_result}) {
      check_conservation(r->scheduler.transmitted, r->parser, r->editor,
                         r->scheduler.tail_drops,
                         r == &vs_result ? "full router, VS"
                                         : "full router, VM",
                         ledger);
    }
    if (verify_egress) {
      for (const auto* r : {&vs_result, &vm_result}) {
        if (r->scheduler.tail_drops == 0) {
          check_egress(r->egress, r == &vs_result ? "VS" : "VM", ledger);
        } else {
          ++expected_tail_free_;
        }
      }
    }
  }
  {
    const Clock::time_point start = Clock::now();
    pipeline::MergedRouter vm(*merged_, kStages);
    dataplane::cycle::CycleRouter router(vm, cycle_config_);
    std::size_t next = 0;
    while (next < frames_.size() || !router.drained()) {
      while (next < frames_.size() && frames_[next].cycle <= router.now()) {
        router.accept_frame(frames_[next]);
        ++next;
      }
      router.step();
    }
    const dataplane::cycle::CycleResult result = router.finish();
    const power::ActivityPower power = price(result.activity, true);
    t.cycle_s = seconds_since(start);

    fp.add(cycle_fingerprint(result));
    add_power(fp, power);
    check_conservation(result.scheduler.transmitted, result.parser,
                       result.editor, result.scheduler.tail_drops,
                       "cycle router", ledger);
    if (verify_egress) {
      if (result.scheduler.tail_drops == 0) {
        check_egress(result.egress, "cycle router", ledger);
      } else {
        ++expected_tail_free_;
      }
    }
  }
  t.fingerprint = fp.value();
  return t;
}

RouterPhase::PassTimes RouterPhase::traced_pass(Tracer& tracer,
                                                Ledger& ledger) {
  PassTimes t;
  Fingerprint fp;
  ledger.attempt(3 * frames_.size());
  for (const bool merged : {false, true}) {
    // The direct call: its simulated statistics anchor the replay.
    const std::unique_ptr<pipeline::VirtualRouter> direct_lookup =
        make_lookup(merged);
    Tracer::Span direct_span(tracer, "dataplane.run_full_router", "dataplane");
    const dataplane::FullRouterResult direct =
        dataplane::run_full_router(*direct_lookup, frames_, full_config_);
    sums_.full_router_s += direct_span.stop();

    const std::unique_ptr<pipeline::VirtualRouter> lookup =
        make_lookup(merged);
    StagedTimes staged;
    Tracer::Span replay_span(tracer, "dataplane.full_router.staged_replay",
                             "dataplane");
    const dataplane::FullRouterResult replay =
        staged_replay(*lookup, frames_, full_config_, tracer, &staged);
    power::ActivityPower power;
    {
      Tracer::Span span(tracer, "power.activity.estimate", "power");
      power = price(replay.activity, merged);
      sums_.estimate_us.push_back(span.stop() * 1e6);
    }
    t.full_router_s += replay_span.stop();

    const std::uint64_t replay_fp = full_fingerprint(replay);
    ledger.check(replay_fp == full_fingerprint(direct),
                 std::string("router: staged replay diverges from "
                             "run_full_router (") +
                     (merged ? "VM" : "VS") + ")");
    fp.add(replay_fp);
    add_power(fp, power);

    sums_.parser_s += staged.parser_s;
    sums_.lookup_s += staged.lookup_s;
    sums_.editor_s += staged.editor_s;
    sums_.scheduler_s += staged.scheduler_s;
    sums_.frames += frames_.size();
    sums_.edited += staged.edited;
    sums_.enqueued += staged.enqueued;
    sums_.refused_offers += staged.refused_offers;
    sums_.cycles += replay.cycles;
    sums_.grants += sum(replay.scheduler.arbiter_grants_per_vn);
    sums_.comparisons += sum(replay.scheduler.arbiter_comparisons_per_vn);
    for (std::size_t e = 0; e < lookup->engine_count(); ++e) {
      const pipeline::ActivityCounters& a = lookup->engine(e).activity();
      sums_.stage_ticks += a.cycles * a.stage_busy.size();
      sums_.busy_stage_ticks += sum(a.stage_busy);
    }
    check_conservation(replay.scheduler.transmitted, replay.parser,
                       replay.editor, replay.scheduler.tail_drops,
                       merged ? "staged replay, VM" : "staged replay, VS",
                       ledger);
  }
  {
    Tracer::Span drive_span(tracer, "dataplane.cycle.run", "dataplane");
    pipeline::MergedRouter vm(*merged_, kStages);
    dataplane::cycle::CycleRouter router(vm, cycle_config_);
    std::size_t next = 0;
    double accept_s = 0.0;
    double step_s = 0.0;
    while (next < frames_.size() || !router.drained()) {
      if (next < frames_.size() && frames_[next].cycle <= router.now()) {
        const Clock::time_point start = Clock::now();
        while (next < frames_.size() && frames_[next].cycle <= router.now()) {
          router.accept_frame(frames_[next]);
          ++next;
        }
        accept_s += seconds_since(start);
      }
      const Clock::time_point start = Clock::now();
      router.step();
      step_s += seconds_since(start);
    }
    dataplane::cycle::CycleResult result;
    {
      Tracer::Span span(tracer, "dataplane.cycle.finish", "dataplane");
      result = router.finish();
    }
    power::ActivityPower power;
    {
      Tracer::Span span(tracer, "power.activity.estimate", "power");
      power = price(result.activity, true);
      sums_.estimate_us.push_back(span.stop() * 1e6);
    }
    t.cycle_s = drive_span.stop();
    sums_.accept_s += accept_s;
    sums_.step_s += step_s;
    sums_.cycle_cycles += result.cycles;
    sums_.cycle_frames += frames_.size();
    sums_.vc_alloc_stalls += result.cycle.vc_alloc_stalls;
    sums_.credit_stalls += result.cycle.credit_stalls;
    fp.add(cycle_fingerprint(result));
    add_power(fp, power);
    check_conservation(result.scheduler.transmitted, result.parser,
                       result.editor, result.scheduler.tail_drops,
                       "cycle router (traced)", ledger);
  }
  t.fingerprint = fp.value();
  return t;
}

void RouterPhase::measure(double seconds, bool traced, Tracer& tracer,
                          Ledger& ledger) {
  const double frames = static_cast<double>(frames_.size());
  const Clock::time_point start = Clock::now();
  do {
    pin_next_cpu();
    if (traced) {
      // Every traced pass must reproduce the untraced statistics.
      const PassTimes t = traced_pass(tracer, ledger);
      ledger.check(t.fingerprint == reference_fp_,
                   "router: traced pass does not reproduce the untraced "
                   "statistics");
      traced_s_.push_back(t.full_router_s + t.cycle_s);
      continue;
    }
    // The first pass verifies egress against the UnibitTrie prediction;
    // every later pass must repeat its simulated statistics exactly.
    const bool first = full_rate_.empty();
    const PassTimes t = untraced_pass(ledger, first);
    if (first) reference_fp_ = t.fingerprint;
    ledger.check(t.fingerprint == reference_fp_,
                 "router: pass " + std::to_string(full_rate_.size()) +
                     " did not repeat the simulated statistics");
    full_rate_.push_back(2.0 * frames / t.full_router_s);
    cycle_rate_.push_back(frames / t.cycle_s);
    untraced_s_.push_back(t.full_router_s + t.cycle_s);
  } while (seconds_since(start) < seconds);
}

void RouterPhase::report(PhaseResult& result) const {
  result.end_to_end["fullrouter_frames_per_s"] = {median(full_rate_),
                                                  "frames/s"};
  result.end_to_end["cycle_frames_per_s"] = {median(cycle_rate_), "frames/s"};
  result.fingerprint.add(reference_fp_);
  result.regime["router.frames"] = static_cast<double>(frames_.size());
  result.regime["router.passes"] = static_cast<double>(full_rate_.size());
  result.regime["router.egress_checks_not_applicable"] =
      static_cast<double>(expected_tail_free_);
  if (traced_s_.empty()) return;

  const LayerSums& s = sums_;
  const auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  MetricMap& m = result.per_layer;
  const double stage_s = s.parser_s + s.lookup_s + s.editor_s + s.scheduler_s;
  m["dataplane.full_router.self_ns_per_cycle"] = {
      per((s.full_router_s - stage_s) * 1e9, static_cast<double>(s.cycles)),
      "ns"};
  m["dataplane.full_router.cycles_per_frame"] = {
      per(static_cast<double>(s.cycles), static_cast<double>(s.frames)),
      "cycle/frame"};
  m["pipeline.lookup.ns_per_cycle"] = {
      per(s.lookup_s * 1e9, static_cast<double>(s.cycles)), "ns"};
  m["pipeline.lookup.idle_tick_share"] = {
      1.0 - per(static_cast<double>(s.busy_stage_ticks),
                static_cast<double>(s.stage_ticks)),
      "share"};
  m["pipeline.lookup.offers_refused_per_frame"] = {
      per(static_cast<double>(s.refused_offers), static_cast<double>(s.frames)),
      "count/frame"};
  m["dataplane.parser.ns_per_frame"] = {
      per(s.parser_s * 1e9, static_cast<double>(s.frames)), "ns"};
  m["dataplane.editor.ns_per_frame"] = {
      per(s.editor_s * 1e9, static_cast<double>(s.edited)), "ns"};
  m["dataplane.scheduler.ns_per_frame"] = {
      per(s.scheduler_s * 1e9, static_cast<double>(s.enqueued)), "ns"};
  m["dataplane.scheduler.comparisons_per_grant"] = {
      per(static_cast<double>(s.comparisons), static_cast<double>(s.grants)),
      "count"};
  m["dataplane.cycle.step_ns_per_cycle"] = {
      per(s.step_s * 1e9, static_cast<double>(s.cycle_cycles)), "ns"};
  m["dataplane.cycle.accept_ns_per_frame"] = {
      per(s.accept_s * 1e9, static_cast<double>(s.cycle_frames)), "ns"};
  m["dataplane.cycle.cycles_per_frame"] = {
      per(static_cast<double>(s.cycle_cycles),
          static_cast<double>(s.cycle_frames)),
      "cycle/frame"};
  m["dataplane.cycle.vc_alloc_stalls_per_frame"] = {
      per(static_cast<double>(s.vc_alloc_stalls),
          static_cast<double>(s.cycle_frames)),
      "count/frame"};
  m["dataplane.cycle.credit_stalls_per_frame"] = {
      per(static_cast<double>(s.credit_stalls),
          static_cast<double>(s.cycle_frames)),
      "count/frame"};
  m["power.activity.estimate_us"] = {median(s.estimate_us), "us"};
  const double untraced = median(untraced_s_);
  m["trace.router.overhead_share"] = {
      per(median(traced_s_) - untraced, untraced), "share"};
}

}  // namespace perfbench
