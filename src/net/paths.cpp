#include "net/paths.h"

#include <algorithm>

namespace prete::net {

bool path_uses_fiber(const Network& net, const Path& path, FiberId fiber) {
  for (LinkId e : path) {
    if (net.link(e).fiber == fiber) return true;
  }
  return false;
}

bool path_is_valid(const Network& net, const Path& path, NodeId src,
                   NodeId dst) {
  if (path.empty()) return src == dst;
  if (net.link(path.front()).src != src) return false;
  if (net.link(path.back()).dst != dst) return false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (net.link(path[i]).dst != net.link(path[i + 1]).src) return false;
  }
  // Loop-free: no node repeats.
  std::vector<NodeId> nodes = path_nodes(net, path);
  std::sort(nodes.begin(), nodes.end());
  return std::adjacent_find(nodes.begin(), nodes.end()) == nodes.end();
}

std::vector<NodeId> path_nodes(const Network& net, const Path& path) {
  std::vector<NodeId> nodes;
  if (path.empty()) return nodes;
  nodes.push_back(net.link(path.front()).src);
  for (LinkId e : path) nodes.push_back(net.link(e).dst);
  return nodes;
}

}  // namespace prete::net
