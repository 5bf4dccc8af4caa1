#include "net/traffic.h"

#include <cmath>
#include <stdexcept>

#include "net/paths.h"

namespace prete::net {

double shortest_path_max_utilization(const Network& net,
                                     const std::vector<Flow>& flows,
                                     const TrafficMatrix& tm) {
  std::vector<double> load(static_cast<std::size_t>(net.num_links()), 0.0);
  const auto weight = fiber_length_weight(net);
  for (const Flow& flow : flows) {
    const auto path = shortest_path(net, flow.src, flow.dst, weight);
    if (!path) throw std::runtime_error("disconnected flow in traffic gen");
    for (LinkId e : *path) {
      load[static_cast<std::size_t>(e)] += tm[static_cast<std::size_t>(flow.id)];
    }
  }
  double max_util = 0.0;
  for (LinkId e = 0; e < net.num_links(); ++e) {
    max_util = std::max(max_util, load[static_cast<std::size_t>(e)] /
                                      net.link(e).capacity_gbps);
  }
  return max_util;
}

std::vector<TrafficMatrix> generate_traffic(const Network& net,
                                            const std::vector<Flow>& flows,
                                            util::Rng& rng,
                                            const TrafficConfig& config) {
  // Base gravity demand is carried in Flow::demand_gbps (the gravity score);
  // normalize it against capacity.
  TrafficMatrix base(flows.size());
  for (const Flow& f : flows) {
    base[static_cast<std::size_t>(f.id)] = std::max(f.demand_gbps, 1e-6);
  }
  const double util = shortest_path_max_utilization(net, flows, base);
  const double norm = config.base_max_utilization / util;
  for (double& d : base) d *= norm;

  std::vector<TrafficMatrix> matrices;
  matrices.reserve(static_cast<std::size_t>(config.num_matrices));
  constexpr double kTwoPi = 6.283185307179586;
  for (int h = 0; h < config.num_matrices; ++h) {
    // Diurnal curve peaking mid-day relative to the matrix index.
    const double phase =
        kTwoPi * static_cast<double>(h) / static_cast<double>(config.num_matrices);
    const double diurnal = 1.0 - config.diurnal_swing * 0.5 * (1.0 + std::cos(phase));
    TrafficMatrix tm(base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      const double jitter = 1.0 + config.noise * (2.0 * rng.next_double() - 1.0);
      tm[i] = base[i] * diurnal * jitter;
    }
    matrices.push_back(std::move(tm));
  }
  return matrices;
}

void validate_diurnal_config(const DiurnalConfig& config, int num_nodes) {
  // Negated comparisons so NaN parameters are rejected too.
  if (!(config.base_max_utilization > 0.0) ||
      !std::isfinite(config.base_max_utilization)) {
    throw std::invalid_argument(
        "diurnal traffic: base_max_utilization must be positive and finite");
  }
  if (config.num_matrices < 1) {
    throw std::invalid_argument("diurnal traffic: num_matrices must be >= 1");
  }
  if (!(config.diurnal_swing >= 0.0 && config.diurnal_swing < 1.0)) {
    throw std::invalid_argument(
        "diurnal traffic: diurnal_swing must be in [0, 1)");
  }
  if (!(config.noise >= 0.0 && config.noise < 1.0)) {
    throw std::invalid_argument("diurnal traffic: noise must be in [0, 1)");
  }
  if (!(config.demand_scale > 0.0) || !std::isfinite(config.demand_scale)) {
    throw std::invalid_argument(
        "diurnal traffic: demand_scale must be positive and finite");
  }
  if (!config.node_offset_hours.empty() &&
      config.node_offset_hours.size() != static_cast<std::size_t>(num_nodes)) {
    throw std::invalid_argument(
        "diurnal traffic: node_offset_hours must be empty or one per node");
  }
  for (double offset : config.node_offset_hours) {
    if (!std::isfinite(offset)) {
      throw std::invalid_argument(
          "diurnal traffic: node offsets must be finite");
    }
  }
}

std::vector<TrafficMatrix> generate_diurnal_traffic(
    const Network& net, const std::vector<Flow>& flows, util::Rng& rng,
    const DiurnalConfig& config) {
  validate_diurnal_config(config, net.num_nodes());

  TrafficMatrix base(flows.size());
  for (const Flow& f : flows) {
    base[static_cast<std::size_t>(f.id)] = std::max(f.demand_gbps, 1e-6);
  }
  const double util = shortest_path_max_utilization(net, flows, base);
  const double norm =
      config.base_max_utilization * config.demand_scale / util;
  for (double& d : base) d *= norm;

  // A flow's local phase is the mean of its endpoints' timezone offsets.
  std::vector<double> flow_phase_hours(flows.size(), 0.0);
  if (!config.node_offset_hours.empty()) {
    for (const Flow& f : flows) {
      flow_phase_hours[static_cast<std::size_t>(f.id)] =
          0.5 * (config.node_offset_hours[static_cast<std::size_t>(f.src)] +
                 config.node_offset_hours[static_cast<std::size_t>(f.dst)]);
    }
  }

  std::vector<TrafficMatrix> matrices;
  matrices.reserve(static_cast<std::size_t>(config.num_matrices));
  constexpr double kTwoPi = 6.283185307179586;
  for (int h = 0; h < config.num_matrices; ++h) {
    TrafficMatrix tm(base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      const double local_hour =
          static_cast<double>(h) + flow_phase_hours[i];
      const double phase =
          kTwoPi * local_hour / static_cast<double>(config.num_matrices);
      const double diurnal =
          1.0 - config.diurnal_swing * 0.5 * (1.0 + std::cos(phase));
      const double jitter = 1.0 + config.noise * (2.0 * rng.next_double() - 1.0);
      tm[i] = base[i] * diurnal * jitter;
    }
    matrices.push_back(std::move(tm));
  }
  return matrices;
}

TrafficMatrix scale_traffic(const TrafficMatrix& tm, double scale) {
  TrafficMatrix out(tm.size());
  for (std::size_t i = 0; i < tm.size(); ++i) out[i] = tm[i] * scale;
  return out;
}

}  // namespace prete::net
