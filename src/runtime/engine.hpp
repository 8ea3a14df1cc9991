/// \file engine.hpp
/// \brief Event-driven execution of a partitioned circuit on the DQC
/// architecture (the paper's evaluation core, §IV).
///
/// The engine couples two processes on one discrete-event simulator:
///  1. the entanglement-generation service (ent::GenerationService), and
///  2. list-scheduled circuit execution: a gate starts as soon as its
///     per-qubit predecessors complete; remote gates additionally wait for
///     an EPR pair (from the buffer, or — in the bufferless original design
///     — for a heralding instant).
///
/// Depth is the resulting makespan in local-CNOT units; fidelity is the
/// product of all gate fidelities (remote gates via the teleportation-gadget
/// model at the consumed pair's decayed fidelity) times exp(-kappa * depth).
///
/// For adapt_buf / init_buf the engine admits the circuit segment by
/// segment, choosing the pre-compiled ASAP/ALAP/original variant from the
/// live buffer occupancy when each segment is admitted (paper §III-D).
///
/// Entry point: RunContext, a reusable workspace executing one trial per
/// call. All engine state (event pool, dependency arrays, link services,
/// scratch buffers, metrics) is reset() instead of reallocated between
/// calls, and circuit-derived artifacts (gate placement, segment variants,
/// fusion chains, link topology, teleportation models) are cached while
/// consecutive calls share a setup — so a Monte-Carlo trial loop does zero
/// steady-state allocation. Each thread-pool worker owns one; a one-off
/// trial is `RunContext().execute(...)`.
///
/// Delivery is decided once per trial: per-link (composed) services, or
/// under swap-as-you-go one service per physical edge. One serve loop
/// takes a gate's pairs from either source.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/circuit.hpp"
#include "noise/teleport_fidelity.hpp"
#include "runtime/arch_config.hpp"
#include "runtime/design.hpp"
#include "runtime/metrics.hpp"

namespace dqcsim::runtime {

/// Reusable single-trial execution workspace. Not thread-safe: one
/// RunContext per concurrent caller (see ThreadPool::parallel_for_workers).
class RunContext {
 public:
  RunContext();
  ~RunContext();
  RunContext(RunContext&&) noexcept;
  RunContext& operator=(RunContext&&) noexcept;
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Execute one trial of `design` with generation randomness `seed` and
  /// return its metrics. `assignment` maps qubit -> node id (ignored for
  /// IdealMono). Inputs are validated on every call; `circuit` and
  /// `assignment` must stay alive for the call.
  ///
  /// \param teleport_model optional pre-built teleported-gate fidelity
  ///        model (must match config fidelities); pass nullptr to build
  ///        (and cache) one internally.
  RunResult execute(const Circuit& circuit, const std::vector<int>& assignment,
                    const ArchConfig& config, DesignKind design,
                    std::uint64_t seed,
                    const noise::TeleportFidelityModel* teleport_model =
                        nullptr);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace dqcsim::runtime
