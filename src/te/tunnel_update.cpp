#include "te/tunnel_update.h"

#include <algorithm>
#include <cmath>

#include "net/paths.h"

namespace prete::te {

TunnelUpdateResult update_tunnels_for_degradation(
    const net::Network& network, const std::vector<net::Flow>& flows,
    net::TunnelSet& tunnels, net::FiberId degraded_fiber,
    const TunnelUpdateConfig& config) {
  TunnelUpdateResult result;
  const auto weight = net::fiber_length_weight(network);
  // Step 1: G'(V, E) = G minus the degraded fiber's links.
  auto usable = [&](const net::Link& link) {
    return link.fiber != degraded_fiber;
  };

  for (const net::Flow& flow : flows) {
    // Step 2: Lambda = number of this flow's tunnels traversing the fiber.
    int lambda = 0;
    std::vector<net::Path> existing;
    for (net::TunnelId t : tunnels.tunnels_for_flow(flow.id)) {
      existing.push_back(tunnels.tunnel(t).path);
      if (tunnels.uses_fiber(network, t, degraded_fiber)) ++lambda;
    }
    if (lambda == 0) continue;
    ++result.affected_flows;
    result.affected_tunnels += lambda;

    const int want = std::min(
        config.max_new_tunnels_per_flow,
        static_cast<int>(std::ceil(config.ratio * static_cast<double>(lambda))));
    if (want <= 0) continue;

    // Establish new tunnels from G': k-shortest paths avoiding the fiber,
    // skipping paths the flow already has.
    int created = 0;
    auto admit = [&](const net::Path& p) {
      if (net::path_uses_fiber(network, p, degraded_fiber)) return;
      if (std::find(existing.begin(), existing.end(), p) != existing.end()) {
        return;
      }
      result.created.push_back(tunnels.add_tunnel(flow.id, p, /*dynamic=*/true));
      existing.push_back(p);
      ++created;
    };
    // The Yen budget also counts candidates that traverse the degraded fiber
    // (Yen ranks on the full graph; the filter is applied afterwards), so a
    // single query of `want + existing` paths under-provisions whenever the
    // flow's short paths cluster on that fiber. Grow the budget until `want`
    // survivors are admitted or Yen exhausts the path space.
    constexpr int kMaxYenBudget = 64;
    int budget = want + static_cast<int>(existing.size());
    for (;;) {
      const auto candidates =
          net::k_shortest_paths(network, flow.src, flow.dst, budget, weight);
      for (const net::Path& p : candidates) {
        if (created >= want) break;
        admit(p);
      }
      if (created >= want || budget >= kMaxYenBudget ||
          static_cast<int>(candidates.size()) < budget) {
        break;  // satisfied, budget cap, or no more paths to rank
      }
      // Already-admitted paths sit in `existing`, so re-scanning the larger
      // candidate list only admits new survivors.
      budget = std::min(kMaxYenBudget, budget * 2);
    }
    if (created < want) {
      // Fall back to shortest paths computed directly on G'. Looped over the
      // remaining deficit with multiplicative penalties on used links so
      // successive queries return distinct routes where the graph has them.
      std::vector<double> penalty(static_cast<std::size_t>(network.num_links()),
                                  1.0);
      const int max_attempts = 4 * want;
      for (int attempt = 0; attempt < max_attempts && created < want;
           ++attempt) {
        const auto direct = net::shortest_path(
            network, flow.src, flow.dst,
            [&](const net::Link& l) {
              return weight(l) * penalty[static_cast<std::size_t>(l.id)];
            },
            usable);
        if (!direct) break;  // flow disconnected in G'
        for (net::LinkId l : *direct) {
          penalty[static_cast<std::size_t>(l)] *= 8.0;
        }
        admit(*direct);
      }
    }
    // Whatever remains is a true shortfall of G', reported instead of
    // silently under-provisioning.
    result.shortfall += want - created;
  }
  return result;
}

}  // namespace prete::te
