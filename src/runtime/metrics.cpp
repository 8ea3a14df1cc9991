#include "runtime/metrics.hpp"

namespace dqcsim::runtime {

AggregateResult::AggregateResult() {
  // Quantile histogram ranges, in local-CNOT time units. Samples beyond a
  // range still land in the exact-count tail buckets and interpolate
  // against min/max, so a wider-than-expected distribution degrades
  // gracefully instead of clipping.
  avg_pair_age.enable_histogram(0.0, 256.0, 512);
  avg_remote_wait.enable_histogram(0.0, 4096.0, 512);
  outage_downtime.enable_histogram(0.0, 65536.0, 512);
}

void AggregateResult::add(const RunResult& run) {
  depth.add(run.depth);
  fidelity.add(run.fidelity);
  epr_wasted.add(static_cast<double>(run.epr_wasted));
  epr_expired.add(static_cast<double>(run.epr_expired));
  avg_pair_age.add(run.avg_pair_age);
  avg_remote_wait.add(run.avg_remote_wait);
  entanglement_swaps.add(static_cast<double>(run.entanglement_swaps));
  avg_route_hops.add(run.avg_route_hops);
  edges_shared.add(static_cast<double>(run.edges_shared));
  max_edge_load.add(static_cast<double>(run.max_edge_load));
  reroutes.add(static_cast<double>(run.reroutes));
  outage_downtime.add(run.outage_downtime);
  pairs_salvaged.add(static_cast<double>(run.pairs_salvaged));
  pairs_discarded.add(static_cast<double>(run.pairs_discarded));
  truncated.add(run.truncated ? 1.0 : 0.0);
  events.add(static_cast<double>(run.events));
  epr_attempts.add(static_cast<double>(run.epr_attempts));
  epr_successes.add(static_cast<double>(run.epr_successes));
  gen_windows_walked.add(static_cast<double>(run.gen_windows_walked));
}

}  // namespace dqcsim::runtime
