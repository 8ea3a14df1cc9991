/// \file remote_gates.hpp
/// \brief Classification of gates as local or remote under a partition.
///
/// A two-qubit gate whose operands live on different QPU nodes is *remote*
/// and must be implemented by gate teleportation, consuming one EPR pair
/// (paper §II-C). Everything else is local to one node.

#pragma once

#include <cstddef>
#include <vector>

#include "circuit/circuit.hpp"
#include "net/router.hpp"

namespace dqcsim::sched {

/// Per-gate placement information for a partitioned circuit.
struct GatePlacement {
  /// 1 if gate i is remote (char: vector<bool> avoided).
  std::vector<char> is_remote;
  std::size_t num_remote_2q = 0;
  std::size_t num_local_2q = 0;
  std::size_t num_1q = 0;
  std::size_t num_measure = 0;

  bool remote(std::size_t gate_index) const {
    return is_remote.at(gate_index) != 0;
  }
};

/// Classify every gate of `circuit` under the qubit->node `assignment`.
/// Precondition: assignment.size() == circuit.num_qubits().
GatePlacement classify_gates(const Circuit& circuit,
                             const std::vector<int>& assignment);

/// In-place variant: overwrite `out` with the classification, reusing its
/// storage (no allocation once `out.is_remote` has sufficient capacity).
void classify_gates(const Circuit& circuit, const std::vector<int>& assignment,
                    GatePlacement& out);

/// Topology-aware remote-gate cost summary: on a routed interconnect a
/// remote gate's EPR pair crosses hops physical links and pays hops - 1
/// entanglement swaps, so scheduling cost scales with route length, not
/// just the remote-gate count.
struct RemoteDistanceStats {
  std::size_t multihop_gates = 0;  ///< remote gates with hops > 1
  std::size_t total_hops = 0;      ///< sum of hops over remote gates
  std::size_t total_swaps = 0;     ///< sum of (hops - 1) over remote gates
  int max_hops = 0;                ///< longest route any gate pays
};

/// Accumulate the route-length statistics of every remote gate in
/// `placement` under `router` (one pair quota per gate; multiply by
/// pairs_per_remote_gate for state teleportation / purification).
/// Preconditions: placement matches circuit; assignment entries are valid
/// node ids of router's topology.
RemoteDistanceStats remote_distance_stats(const Circuit& circuit,
                                          const std::vector<int>& assignment,
                                          const GatePlacement& placement,
                                          const net::Router& router);

}  // namespace dqcsim::sched
