/// \file scenario.hpp
/// \brief Fault & drift scenarios: deterministic, seed-derived schedules of
/// fabric perturbations applied per Monte-Carlo trial.
///
/// All sweeps so far assume a stationary fabric: link quality, topology, and
/// noise never change within or across trials. A Scenario perturbs the
/// interconnect over *simulated* time:
///
///  - link-quality drift: fabric-wide multiplicative scales on p_succ and
///    f0, each a seeded random walk on a fixed step grid (piecewise
///    constant between grid points), always clamped back into the field's
///    valid domain;
///  - link and node outages with recovery windows: a down edge generates no
///    pairs, a down node takes all of its incident edges down;
///  - stochastic per-edge failures: an exponential up-time process with a
///    fixed repair window, for outage-rate sweeps.
///
/// A Scenario is a *specification*. The concrete per-trial schedule (walk
/// steps, stochastic failure times) is derived from the trial seed by
/// scenario::ScenarioRuntime — the same seed always produces the same
/// schedule, independent of thread count or sweep order, so every
/// determinism guarantee of the experiment driver carries over.
///
/// Wiring: set runtime::ArchConfig::scenario (requires a topology; the
/// all-to-all interconnect is available explicitly via
/// net::Topology::all_to_all). A null scenario is bit-identical to the
/// stationary engine. See runtime/engine.cpp for the execution semantics:
/// generation services re-read the effective link parameters at every
/// attempt-window boundary, and outages invalidate a logical link's route,
/// re-routing it through net::Router over the surviving subgraph.

#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"

namespace dqcsim::scenario {

/// Which link parameter a drift track scales.
enum class DriftField {
  PSucc,  ///< per-attempt success probability, clamped to (0, 1]
  F0,     ///< fresh-pair fidelity, clamped to [0.25, 1]
};

/// One fabric-wide multiplicative scale on a link parameter: a seeded
/// random walk. Every `walk_interval` time units the scale multiplies by
/// (1 + u), u uniform in [-walk_step, +walk_step], clamped to
/// [walk_min, walk_max]; it starts at 1. Steps are drawn from a per-trial
/// stream, so the walk differs between trials but is identical for
/// identical seeds. Scales of tracks on the same field compose by
/// multiplication; the engine clamps the scaled value back into the field's
/// domain.
struct DriftTrack {
  DriftField field = DriftField::PSucc;
  double walk_interval = 0.0;
  double walk_step = 0.0;
  double walk_min = 0.5;
  double walk_max = 1.5;
};

/// One physical link down for [start, start + duration).
struct LinkOutage {
  int node_a = 0;
  int node_b = 0;
  double start = 0.0;
  double duration = 0.0;
};

/// One QPU node down for [start, start + duration): all incident edges stop
/// generating. Local gate execution on the node continues — outages model
/// the entanglement fabric (fiber links and communication-qubit hardware),
/// not the compute substrate.
struct NodeOutage {
  int node = 0;
  double start = 0.0;
  double duration = 0.0;
};

/// Stochastic per-edge failure process: every edge independently alternates
/// up-times drawn from Exp(mtbf) with fixed `duration` repair windows.
/// mtbf == 0 disables the process. Failure times derive from the trial seed
/// and the edge index, so trials are reproducible and edges independent.
struct RandomLinkFailures {
  double mtbf = 0.0;      ///< mean up-time between failures (time units)
  double duration = 0.0;  ///< repair window per failure
};

/// A full fault & drift scenario (see file header). Default-constructed ==
/// stationary fabric (ScenarioRuntime then reports every edge up at scale 1
/// and no schedule boundaries).
struct Scenario {
  std::vector<DriftTrack> drift;
  std::vector<LinkOutage> link_outages;
  std::vector<NodeOutage> node_outages;
  RandomLinkFailures random_failures;

  /// Stochastic events (random failures) past this sim time are not
  /// generated — a safety horizon bounding lazy schedule extension.
  double horizon = 1e9;

  /// Mixed into every scenario-derived stream so scenario draws never
  /// collide with the engine's entanglement-generation stream.
  std::uint64_t salt = 0x5CE7A210FA;

  /// True when no component can ever perturb the fabric.
  bool empty() const noexcept {
    return drift.empty() && link_outages.empty() && node_outages.empty() &&
           random_failures.mtbf == 0.0;
  }

  /// Throws ConfigError when any field is out of domain or targets an
  /// edge/node absent from `topo`. Every outage must recover (finite
  /// positive duration): a permanently dead link could stall a trial whose
  /// remote gates depend on it.
  void validate(const net::Topology& topo) const;
};

}  // namespace dqcsim::scenario
