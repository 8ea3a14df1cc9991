/// \file workloads.hpp
/// \brief The benchmark's four workloads: their set-up (circuit generation,
/// partitioning, topology and scenario objects) and the driver calls that
/// make up one pass.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "net/topology.hpp"
#include "runtime/arch_config.hpp"
#include "runtime/design.hpp"
#include "runtime/experiment.hpp"
#include "trace.hpp"

namespace perfbench {

/// One partitioned circuit.
struct Instance {
  std::string name;
  dqcsim::Circuit circuit;
  std::vector<int> assignment;
  double cut = 0.0;
  double ideal_depth = 0.0;  ///< runtime::ideal_depth, filled after set-up
};

/// One driver call: run_design (one point) or run_design_matrix.
struct Call {
  std::size_t instance = 0;
  bool matrix = false;
  int runs = 1;
  std::vector<dqcsim::runtime::DesignPoint> points;
  std::vector<std::string> cells;  ///< reference key per point
};

struct Workload {
  std::string name;
  std::vector<Instance> instances;
  /// Interconnects of the workload (all_to_all(2) for the 2-node ones).
  std::vector<dqcsim::net::Topology> topologies;
  std::vector<Call> calls;  ///< one pass, in issue order
  /// Call replayed at another thread count and trial by trial by the output
  /// check.
  std::size_t check_call = 0;
  /// Configuration the standalone probes use (with design AsyncBuf).
  dqcsim::runtime::ArchConfig probe_config;
  /// Assert the paper's depth ordering across designs (paper_grid).
  bool paper_order = false;
  /// Percentile reported as call_ms.tail: chosen so a run of the
  /// benchmark's length has several times the ten calls beyond it.
  double tail_pct = 95.0;
};

/// Host time of each set-up step, in nanoseconds.
struct SetupTiming {
  double gen_ns = 0.0;
  double partition_ns = 0.0;
  double net_ns = 0.0;
  double scenario_ns = 0.0;
  double total_ns() const {
    return gen_ns + partition_ns + net_ns + scenario_ns;
  }
};

const std::vector<std::string>& workload_names();

/// Build the named workload, timing each library call into `timing` and,
/// when `tracer` is set, recording one root span per call under `trace`.
/// Throws std::invalid_argument for an unknown name.
Workload build_workload(const std::string& name, SetupTiming& timing,
                        Tracer* tracer, std::uint32_t trace);

/// Fill Instance::ideal_depth (not part of the timed set-up).
void compute_ideal_depths(Workload& workload);

/// Trials one pass runs (sum over calls of points x runs).
std::size_t trials_per_pass(const Workload& workload);

/// Teleport-model builds one pass makes (one per point).
std::size_t model_builds_per_pass(const Workload& workload);

}  // namespace perfbench
