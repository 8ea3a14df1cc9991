/// \file probes.hpp
/// \brief Standalone layer probes, driven through public headers only: the
/// noise teleport-model build, an ent generation service on its own des
/// simulator, des schedule/dispatch churn, and net router construction.
/// Each repetition is recorded as one root span when a tracer is given.

#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "runtime/arch_config.hpp"
#include "runtime/design.hpp"
#include "trace.hpp"

namespace perfbench {

struct ProbeTrace {
  Tracer* tracer = nullptr;
  std::uint32_t trace = 0;
};

/// Median host ms to build a noise::TeleportFidelityModel at `config`'s
/// fidelities.
double probe_teleport_model_ms(const dqcsim::runtime::ArchConfig& config,
                               int reps, ProbeTrace pt);

struct GenerationProbe {
  double window_ns = 0.0;          ///< median host ns per attempt window
  double events_per_window = 0.0;  ///< executed DES events / attempts
};

/// A Buffered ent::GenerationService with `design`'s link parameters under
/// `config` (the first physical edge when a topology is set), run on its
/// own des::Simulator for a fixed sim-time horizon with no consumer, so the
/// buffer saturates as on chain_saturated.
GenerationProbe probe_generation(const dqcsim::runtime::ArchConfig& config,
                                 dqcsim::runtime::DesignKind design,
                                 std::uint64_t seed, int reps, ProbeTrace pt);

/// Median host ns per dispatched event of a des::Simulator holding 64
/// self-rescheduling events with seeded pseudo-random delays.
double probe_des_event_ns(std::uint64_t seed, int reps, ProbeTrace pt);

/// Median host ms to build a net::Router over each of `topologies`
/// (summed over the topologies).
double probe_router_build_ms(
    const std::vector<dqcsim::net::Topology>& topologies, int reps,
    ProbeTrace pt);

}  // namespace perfbench
