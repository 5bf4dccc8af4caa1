#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/graph.h"

namespace prete::net {

// A path is a sequence of directed IP link ids.
using Path = std::vector<LinkId>;

// Link weights are callables `double(const Link&)` and link filters
// `bool(const Link&)`. The routing functions below are templates over both,
// so the Dijkstra relaxation, the hot loop of tunnel routing, inlines them.

// Hop count: every link weighs 1.
struct HopCountWeight {
  double operator()(const Link&) const { return 1.0; }
};

// Fiber length, so that routing follows geography like production IGP
// metrics. The small constant keeps zero-length test fibers from producing
// ties on every path.
struct FiberLengthWeight {
  const Network* net;
  double operator()(const Link& link) const {
    return net->fiber(link.fiber).length_km + 1.0;
  }
};

inline HopCountWeight hop_count_weight() { return {}; }
inline FiberLengthWeight fiber_length_weight(const Network& net) {
  return {&net};
}

// The default filter of shortest_path: every link is usable.
struct AnyLink {
  bool operator()(const Link&) const { return true; }
};

// Shortest src->dst path by the given weight, skipping links for which
// `usable` returns false. Returns nullopt when dst is unreachable.
template <typename Weight, typename Usable = AnyLink>
std::optional<Path> shortest_path(const Network& net, NodeId src, NodeId dst,
                                  const Weight& weight,
                                  const Usable& usable = Usable{});

// Yen's algorithm: up to k loop-free shortest paths in increasing weight.
template <typename Weight>
std::vector<Path> k_shortest_paths(const Network& net, NodeId src, NodeId dst,
                                   int k, const Weight& weight);

// Up to k paths that are pairwise fiber-disjoint (greedy peeling: each found
// path removes its fibers from the graph). Guarantees survivability of at
// least one path under any single-fiber cut when k >= 2 and the fiber plant
// is 2-connected.
template <typename Weight>
std::vector<Path> fiber_disjoint_paths(const Network& net, NodeId src,
                                       NodeId dst, int k, const Weight& weight);

template <typename Weight>
double path_weight(const Network& net, const Path& path, const Weight& weight);

// Path helpers.
bool path_uses_fiber(const Network& net, const Path& path, FiberId fiber);
bool path_is_valid(const Network& net, const Path& path, NodeId src, NodeId dst);
std::vector<NodeId> path_nodes(const Network& net, const Path& path);

template <typename Weight, typename Usable>
std::optional<Path> shortest_path(const Network& net, NodeId src, NodeId dst,
                                  const Weight& weight, const Usable& usable) {
  if (src == dst) return Path{};
  const auto n = static_cast<std::size_t>(net.num_nodes());
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  std::vector<LinkId> parent_link(n, -1);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[static_cast<std::size_t>(src)] = 0.0;
  heap.push({0.0, src});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    if (u == dst) break;
    for (LinkId e : net.out_links(u)) {
      const Link& link = net.link(e);
      if (!usable(link)) continue;
      const double w = weight(link);
      if (w < 0) throw std::invalid_argument("negative link weight");
      const double nd = d + w;
      if (nd < dist[static_cast<std::size_t>(link.dst)]) {
        dist[static_cast<std::size_t>(link.dst)] = nd;
        parent_link[static_cast<std::size_t>(link.dst)] = e;
        heap.push({nd, link.dst});
      }
    }
  }
  if (parent_link[static_cast<std::size_t>(dst)] < 0) return std::nullopt;
  Path path;
  for (NodeId v = dst; v != src;) {
    const LinkId e = parent_link[static_cast<std::size_t>(v)];
    path.push_back(e);
    v = net.link(e).src;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

template <typename Weight>
std::vector<Path> k_shortest_paths(const Network& net, NodeId src, NodeId dst,
                                   int k, const Weight& weight) {
  std::vector<Path> result;
  if (k <= 0) return result;
  auto first = shortest_path(net, src, dst, weight);
  if (!first) return result;
  result.push_back(*first);

  // Candidate set ordered by weight; ties broken by the path itself so the
  // set is deterministic.
  auto cmp = [&](const Path& a, const Path& b) {
    const double wa = path_weight(net, a, weight);
    const double wb = path_weight(net, b, weight);
    if (wa != wb) return wa < wb;
    return a < b;
  };
  std::set<Path, decltype(cmp)> candidates(cmp);

  while (static_cast<int>(result.size()) < k) {
    const Path& last = result.back();
    const std::vector<NodeId> last_nodes = path_nodes(net, last);
    // Spur from every node of the previous path.
    for (std::size_t i = 0; i + 1 < last_nodes.size(); ++i) {
      const NodeId spur_node = last_nodes[i];
      const Path root(last.begin(), last.begin() + static_cast<long>(i));
      const std::vector<NodeId> root_nodes(
          last_nodes.begin(), last_nodes.begin() + static_cast<long>(i) + 1);

      // Links removed: the next link of any accepted path sharing this root.
      std::set<LinkId> banned_links;
      for (const Path& p : result) {
        if (p.size() > i && std::equal(root.begin(), root.end(), p.begin())) {
          banned_links.insert(p[i]);
        }
      }
      // Nodes of the root (except the spur node) are banned to keep the
      // path loop-free.
      std::set<NodeId> banned_nodes(root_nodes.begin(), root_nodes.end() - 1);

      auto usable = [&](const Link& link) {
        if (banned_links.count(link.id)) return false;
        if (banned_nodes.count(link.dst) || banned_nodes.count(link.src)) {
          return false;
        }
        return true;
      };
      const auto spur = shortest_path(net, spur_node, dst, weight, usable);
      if (!spur) continue;
      Path candidate = root;
      candidate.insert(candidate.end(), spur->begin(), spur->end());
      if (std::find(result.begin(), result.end(), candidate) == result.end()) {
        candidates.insert(std::move(candidate));
      }
    }
    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

template <typename Weight>
std::vector<Path> fiber_disjoint_paths(const Network& net, NodeId src,
                                       NodeId dst, int k,
                                       const Weight& weight) {
  std::vector<Path> result;
  std::set<FiberId> used_fibers;
  for (int i = 0; i < k; ++i) {
    auto usable = [&](const Link& link) {
      return used_fibers.count(link.fiber) == 0;
    };
    const auto p = shortest_path(net, src, dst, weight, usable);
    if (!p) break;
    for (LinkId e : *p) used_fibers.insert(net.link(e).fiber);
    result.push_back(*p);
  }
  return result;
}

template <typename Weight>
double path_weight(const Network& net, const Path& path, const Weight& weight) {
  double total = 0.0;
  for (LinkId e : path) total += weight(net.link(e));
  return total;
}

}  // namespace prete::net
