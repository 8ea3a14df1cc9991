#include "net/swap.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "noise/werner.hpp"

namespace dqcsim::net {

double swap_bsm_weight(double bsm_fidelity) {
  if (bsm_fidelity <= 0.25) return 0.0;
  return noise::werner_weight_from_fidelity(std::min(bsm_fidelity, 1.0));
}

double swap_composed_fidelity(const double* hop_f0, std::size_t count,
                              double bsm_fidelity) {
  DQCSIM_EXPECTS(count >= 1);
  const double w_bsm = swap_bsm_weight(bsm_fidelity);
  double w = noise::werner_weight_from_fidelity(hop_f0[0]);
  for (std::size_t i = 1; i < count; ++i) {
    w *= noise::werner_weight_from_fidelity(hop_f0[i]) * w_bsm;
  }
  return noise::werner_fidelity_from_weight(w);
}

int capacity_share(int capacity, int load, int rank) {
  DQCSIM_EXPECTS(load >= 1 && rank >= 0 && rank < load);
  if (capacity <= 0) return capacity;
  const int share = capacity / load + (rank < capacity % load ? 1 : 0);
  return std::max(1, share);
}

RoutedLink compose_route(const Route& route,
                         const std::vector<ent::LinkParams>& edge_params,
                         const SwapParams& swap) {
  return compose_route_shared(route, edge_params, swap, nullptr, nullptr);
}

RoutedLink compose_route_shared(const Route& route,
                                const std::vector<ent::LinkParams>& edge_params,
                                const SwapParams& swap, const int* hop_comm,
                                const int* hop_buffer) {
  DQCSIM_EXPECTS_MSG(route.hops() >= 1, "a route needs at least one hop");
  RoutedLink out;
  out.hops = route.hops();
  out.params = edge_params.at(route.edges[0]);
  if (hop_comm != nullptr) out.params.num_comm_pairs = hop_comm[0];
  if (hop_buffer != nullptr) out.params.buffer_capacity = hop_buffer[0];

  // Weight fold mirrors swap_composed_fidelity term-for-term, so the
  // engine's composed f0 is bit-equal to the documented helper (enforced
  // by test_net's ComposeRouteBottlenecksEveryResource).
  double w = noise::werner_weight_from_fidelity(out.params.f0);
  const double w_bsm = swap_bsm_weight(swap.bsm_fidelity);
  for (std::size_t i = 1; i < route.edges.size(); ++i) {
    const ent::LinkParams& hop = edge_params.at(route.edges[i]);
    out.params.num_comm_pairs =
        std::min(out.params.num_comm_pairs,
                 hop_comm != nullptr ? hop_comm[i] : hop.num_comm_pairs);
    out.params.buffer_capacity =
        std::min(out.params.buffer_capacity,
                 hop_buffer != nullptr ? hop_buffer[i] : hop.buffer_capacity);
    out.params.p_succ *= hop.p_succ;
    out.params.cycle_time = std::max(out.params.cycle_time, hop.cycle_time);
    out.params.swap_latency =
        std::max(out.params.swap_latency, hop.swap_latency);
    out.params.kappa = std::max(out.params.kappa, hop.kappa);
    out.params.cutoff = std::min(out.params.cutoff, hop.cutoff);
    w *= noise::werner_weight_from_fidelity(hop.f0) * w_bsm;
  }
  out.params.f0 = noise::werner_fidelity_from_weight(w);
  out.extra_latency = static_cast<double>(out.hops - 1) * swap.latency;
  return out;
}

}  // namespace dqcsim::net
