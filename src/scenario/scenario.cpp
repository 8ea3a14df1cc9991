#include "scenario/scenario.hpp"

#include <cmath>
#include <string>

#include "common/error.hpp"

namespace dqcsim::scenario {

namespace {

/// Throws "Scenario: <what> <msg>" unless `ok`. The message is built only
/// on failure: ArchConfig::validate() runs this once per trial, and a
/// well-formed scenario must validate without allocating.
void require(bool ok, const char* what, const char* msg) {
  if (!ok) throw ConfigError(std::string("Scenario: ") + what + " " + msg);
}

void validate_edge_target(const net::Topology& topo, int a, int b,
                          const char* what) {
  require(a >= 0 && b >= 0 && a < topo.num_nodes() && b < topo.num_nodes(),
          what, "endpoint outside [0, num_nodes)");
  require(topo.has_edge(a, b), what, "targets a node pair with no edge");
}

void validate_outage_window(double start, double duration, const char* what) {
  require(std::isfinite(start) && start >= 0.0, what,
          "start must be finite and nonnegative");
  require(std::isfinite(duration) && duration > 0.0, what,
          "must recover: duration must be finite and positive");
}

void validate_track(const DriftTrack& t) {
  require(std::isfinite(t.walk_interval) && t.walk_interval > 0.0,
          "random walk", "needs a positive step interval");
  require(t.walk_step >= 0.0 && t.walk_step < 1.0, "random walk",
          "step must be in [0, 1)");
  require(t.walk_min > 0.0 && t.walk_max >= t.walk_min, "random walk",
          "clamp needs 0 < walk_min <= walk_max");
}

}  // namespace

void Scenario::validate(const net::Topology& topo) const {
  for (const DriftTrack& t : drift) validate_track(t);
  for (const LinkOutage& o : link_outages) {
    validate_edge_target(topo, o.node_a, o.node_b, "link outage");
    validate_outage_window(o.start, o.duration, "link outage");
  }
  for (const NodeOutage& o : node_outages) {
    require(o.node >= 0 && o.node < topo.num_nodes(), "node outage",
            "node outside [0, num_nodes)");
    validate_outage_window(o.start, o.duration, "node outage");
  }
  if (random_failures.mtbf != 0.0) {
    require(std::isfinite(random_failures.mtbf) && random_failures.mtbf > 0.0,
            "random failure", "mtbf must be positive (0 disables)");
    validate_outage_window(0.0, random_failures.duration, "random failure");
  }
  require(std::isfinite(horizon) && horizon > 0.0, "horizon",
          "must be finite and positive");
}

}  // namespace dqcsim::scenario
