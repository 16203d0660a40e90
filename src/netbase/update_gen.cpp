#include "netbase/update_gen.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace vr::net {

UpdateStreamGenerator::UpdateStreamGenerator(UpdateStreamConfig config)
    : config_(std::move(config)), fresh_gen_(config_.profile) {
  VR_REQUIRE(config_.withdraw_weight >= 0.0 &&
                 config_.announce_new_weight >= 0.0 &&
                 config_.reannounce_weight >= 0.0,
             "update mix weights must be non-negative");
  VR_REQUIRE(config_.withdraw_weight + config_.announce_new_weight +
                     config_.reannounce_weight >
                 0.0,
             "update mix must have positive total weight");
}

std::vector<RouteUpdate> UpdateStreamGenerator::generate(
    const RoutingTable& base, std::uint64_t seed) const {
  Rng rng(seed);
  // Working copy of the installed set, as a vector for O(1) sampling.
  std::vector<Route> installed(base.routes().begin(), base.routes().end());

  // Pool of fresh prefixes to announce (drawn once, consumed in order;
  // entries already present are skipped at use time).
  const RoutingTable fresh_pool = fresh_gen_.generate(seed ^ 0xfeedULL);
  std::size_t fresh_cursor = 0;

  auto is_installed = [&installed](const Prefix& p) {
    return std::any_of(installed.begin(), installed.end(),
                       [&p](const Route& r) { return r.prefix == p; });
  };

  std::vector<RouteUpdate> stream;
  stream.reserve(config_.update_count);
  const double weights[3] = {config_.withdraw_weight,
                             config_.announce_new_weight,
                             config_.reannounce_weight};
  const auto hops = config_.profile.next_hop_count;
  // Whether any operation with positive weight can still add an update.
  // Only asked after a draw added none, and it neither draws nor moves the
  // pool cursor, so streams that finish are unchanged by it.
  const auto can_progress = [&] {
    if (weights[0] > 0.0 && !installed.empty()) return true;  // withdraw
    const auto pool = fresh_pool.routes();
    if (weights[1] > 0.0 &&
        std::any_of(pool.begin() + static_cast<std::ptrdiff_t>(fresh_cursor),
                    pool.end(), [&](const Route& route) {
                      return !is_installed(route.prefix);
                    })) {
      return true;  // announce a fresh prefix
    }
    // Re-announce; with one next hop it can only move a route onto hop 0.
    return weights[2] > 0.0 &&
           std::any_of(installed.begin(), installed.end(),
                       [hops](const Route& route) {
                         return hops > 1 || route.next_hop != 0;
                       });
  };
  while (stream.size() < config_.update_count) {
    const std::size_t before = stream.size();
    switch (rng.next_weighted(weights, 3)) {
      case 0: {  // withdraw
        if (installed.empty()) break;
        const std::size_t i = rng.next_below(installed.size());
        stream.push_back({RouteUpdate::Kind::kWithdraw,
                          Route{installed[i].prefix, kNoRoute}});
        installed[i] = installed.back();
        installed.pop_back();
        break;
      }
      case 1: {  // announce a brand-new prefix
        const auto pool = fresh_pool.routes();
        while (fresh_cursor < pool.size() &&
               is_installed(pool[fresh_cursor].prefix)) {
          ++fresh_cursor;
        }
        if (fresh_cursor >= pool.size()) break;  // pool exhausted
        const Route route = pool[fresh_cursor++];
        stream.push_back({RouteUpdate::Kind::kAnnounce, route});
        installed.push_back(route);
        break;
      }
      case 2: {  // re-announce with a different next hop (path change)
        if (installed.empty()) break;
        const std::size_t i = rng.next_below(installed.size());
        Route route = installed[i];
        route.next_hop = static_cast<NextHop>(
            (route.next_hop + 1 + rng.next_below(std::max<NextHop>(
                                      1, static_cast<NextHop>(hops - 1)))) %
            hops);
        if (route.next_hop == installed[i].next_hop) break;
        stream.push_back({RouteUpdate::Kind::kAnnounce, route});
        installed[i] = route;
        break;
      }
      default:
        break;
    }
    VR_REQUIRE(stream.size() > before || can_progress(),
               "update stream stalled after " +
                   std::to_string(stream.size()) + " of " +
                   std::to_string(config_.update_count) +
                   " updates: no operation in the mix can make progress "
                   "(fresh-prefix pool exhausted, installed set drained, "
                   "or re-announce with a single next hop)");
  }
  return stream;
}

}  // namespace vr::net
