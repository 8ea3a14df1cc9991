/// Unit and engine-level tests for the opt-in contention modes
/// (ArchConfig::share_edge_capacity / swap_as_you_go): deterministic
/// capacity shares, star-hub throughput degradation under shared capacity,
/// swap-as-you-go delivery on long chains, and thread-count bit-identity
/// of the boundary re-planning under outages. The full knob cross product
/// is covered by the generated combination loop in test_degraded.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "expect_identical.hpp"
#include "gen/benchmarks.hpp"
#include "net/swap.hpp"
#include "net/topology.hpp"
#include "runtime/arch_config.hpp"
#include "runtime/engine.hpp"
#include "runtime/experiment.hpp"
#include "scenario/scenario.hpp"

namespace dqcsim::net {
namespace {

using dqcsim::Circuit;
using runtime::AggregateResult;
using runtime::ArchConfig;
using runtime::DesignKind;

// ------------------------------------------------------- capacity_share ----

TEST(CapacityShare, EvenSplitAndRemainderByRank) {
  // 8 units over 4 routes: everyone gets 2.
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(capacity_share(8, 4, rank), 2);
  }
  // 10 over 4: ranks 0 and 1 absorb the remainder.
  EXPECT_EQ(capacity_share(10, 4, 0), 3);
  EXPECT_EQ(capacity_share(10, 4, 1), 3);
  EXPECT_EQ(capacity_share(10, 4, 2), 2);
  EXPECT_EQ(capacity_share(10, 4, 3), 2);
  // Shares sum to the capacity whenever load <= capacity.
  int total = 0;
  for (int rank = 0; rank < 5; ++rank) total += capacity_share(13, 5, rank);
  EXPECT_EQ(total, 13);
}

TEST(CapacityShare, SaturatedEdgeGrantsAtLeastOneUnit) {
  // 2 units over 5 routes: nobody starves; the edge oversubscribes.
  for (int rank = 0; rank < 5; ++rank) {
    EXPECT_EQ(capacity_share(2, 5, rank), rank < 2 ? 1 : 1);
  }
  EXPECT_EQ(capacity_share(1, 3, 2), 1);
}

TEST(CapacityShare, NonpositiveCapacityPassesThrough) {
  // The bufferless designs carry a zero buffer budget; sharing preserves it.
  EXPECT_EQ(capacity_share(0, 3, 0), 0);
  EXPECT_EQ(capacity_share(-1, 2, 1), -1);
}

TEST(CapacityShare, UnloadedEdgeKeepsFullBudget) {
  EXPECT_EQ(capacity_share(7, 1, 0), 7);
}

// --------------------------------------------------- engine-level tests ----

/// 5 leaf qubits on star(8): four remote pairs all routed through the
/// hub-leaf edge of node 1, the contention hot spot.
Circuit hub_circuit() {
  Circuit qc(5);
  for (int rep = 0; rep < 4; ++rep) {
    qc.rzz(0, 1, 0.1);  // nodes 1-2
    qc.rzz(0, 2, 0.1);  // nodes 1-3
    qc.rzz(0, 3, 0.1);  // nodes 1-4
    qc.rzz(0, 4, 0.1);  // nodes 1-5
  }
  return qc;
}

std::vector<int> hub_assignment() { return {1, 2, 3, 4, 5}; }

/// Star config with enough hub budget that the independent-vs-shared
/// difference is structural, not a clamp artifact: the hub degree is 7, so
/// comm_per_node = 28 gives each hub edge 4 pairs — 4 routes sharing edge
/// (0,1) get 1 pair each instead of 4 each.
ArchConfig star_config() {
  ArchConfig config;
  config.num_nodes = 8;
  config.comm_per_node = 28;
  config.buffer_per_node = 28;
  config.set_topology(Topology::star(8));
  return config;
}

TEST(SharedCapacity, StarHubThroughputDegradesVersusIndependentBudgets) {
  const Circuit qc = hub_circuit();
  const std::vector<int> nodes = hub_assignment();
  const ArchConfig independent = star_config();
  ArchConfig shared = star_config();
  shared.share_edge_capacity = true;

  constexpr int kRuns = 8;
  for (const DesignKind design :
       {DesignKind::AsyncBuf, DesignKind::SyncBuf}) {
    SCOPED_TRACE(runtime::design_name(design));
    const AggregateResult indep =
        runtime::run_design(qc, nodes, independent, design, kRuns, 42, 1);
    const AggregateResult contended =
        runtime::run_design(qc, nodes, shared, design, kRuns, 42, 1);
    // Four routes sharing the hub edge each run at a quarter of the pair
    // rate: the makespan must grow strictly.
    EXPECT_GT(contended.depth.mean(), indep.depth.mean());
    // The legacy engine reports no contention; the shared engine sees the
    // hub edge loaded fourfold in every run.
    EXPECT_EQ(indep.max_edge_load.mean(), 0.0);
    EXPECT_GE(contended.edges_shared.mean(), 1.0);
    EXPECT_EQ(contended.max_edge_load.mean(), 4.0);
  }
}

TEST(SharedCapacity, KnobIsNoOpWithoutTopology) {
  const Circuit qc = hub_circuit();
  const std::vector<int> nodes = hub_assignment();
  ArchConfig legacy;
  legacy.num_nodes = 8;
  ArchConfig knobs = legacy;
  knobs.share_edge_capacity = true;
  knobs.swap_as_you_go = true;
  const AggregateResult a =
      runtime::run_design(qc, nodes, legacy, DesignKind::AsyncBuf, 4, 7, 1);
  const AggregateResult b =
      runtime::run_design(qc, nodes, knobs, DesignKind::AsyncBuf, 4, 7, 1);
  EXPECT_EQ(a.depth.mean(), b.depth.mean());
  EXPECT_EQ(a.fidelity.mean(), b.fidelity.mean());
  EXPECT_EQ(a.edges_shared.mean(), 0.0);
}

TEST(SwapAsYouGo, SingleHopMatchesComposedModel) {
  Circuit qc(4);
  for (int rep = 0; rep < 6; ++rep) {
    qc.rzz(0, 2, 0.1);
    qc.rzz(1, 3, 0.2);
    qc.h(0);
  }
  const std::vector<int> nodes = {0, 0, 1, 1};
  ArchConfig legacy;
  legacy.num_nodes = 2;
  legacy.set_topology(Topology::chain(2));
  ArchConfig swap_go = legacy;
  swap_go.swap_as_you_go = true;
  for (const DesignKind design :
       {DesignKind::AsyncBuf, DesignKind::SyncBuf, DesignKind::InitBuf}) {
    SCOPED_TRACE(runtime::design_name(design));
    const AggregateResult a =
        runtime::run_design(qc, nodes, legacy, design, 6, 21, 1);
    const AggregateResult b =
        runtime::run_design(qc, nodes, swap_go, design, 6, 21, 1);
    EXPECT_EQ(a.depth.mean(), b.depth.mean());
    EXPECT_EQ(a.avg_remote_wait.mean(), b.avg_remote_wait.mean());
    EXPECT_NEAR(a.fidelity.mean(), b.fidelity.mean(), 1e-12);
  }
}

TEST(SwapAsYouGo, BeatsComposedModelOnLongChains) {
  // End-to-end traffic across chain(8): the composed model needs all 7
  // hops to herald within one window (p_succ^7), swap-as-you-go buffers
  // each hop independently. The depth gap is the ablation's headline.
  Circuit qc(8);
  for (int rep = 0; rep < 2; ++rep) qc.rzz(0, 7, 0.1);
  const std::vector<int> nodes = {0, 1, 2, 3, 4, 5, 6, 7};
  ArchConfig composed;
  composed.num_nodes = 8;
  composed.set_topology(Topology::chain(8));
  ArchConfig swap_go = composed;
  swap_go.swap_as_you_go = true;

  const AggregateResult slow = runtime::run_design(
      qc, nodes, composed, DesignKind::AsyncBuf, 3, 33, 1);
  const AggregateResult fast = runtime::run_design(
      qc, nodes, swap_go, DesignKind::AsyncBuf, 3, 33, 1);
  EXPECT_GT(slow.depth.mean(), 5.0 * fast.depth.mean());
  // Every delivered pair still pays its 7-hop swap chain.
  EXPECT_EQ(fast.avg_route_hops.mean(), 7.0);
  EXPECT_GT(fast.entanglement_swaps.mean(), 0.0);
}

TEST(SwapAsYouGo, OnDemandDesignRunsDegradedPerEdgeService) {
  // The bufferless original design no longer falls back to the composed
  // model under swap_as_you_go: each edge runs a one-slot buffered
  // service, so hop pairs park on the communication qubits instead of
  // needing all hops to herald within one window (p_succ^hops). On a long
  // chain that degraded service still beats the composed model by a wide
  // margin — and the multi-hop bookkeeping (route hops, swaps) proves the
  // pairs were fused per edge, not composed.
  Circuit qc(5);
  for (int rep = 0; rep < 2; ++rep) qc.rzz(0, 4, 0.1);
  const std::vector<int> nodes = {0, 1, 2, 3, 4};
  ArchConfig composed;
  composed.num_nodes = 5;
  composed.set_topology(Topology::chain(5));
  ArchConfig swap_go = composed;
  swap_go.swap_as_you_go = true;

  const AggregateResult slow = runtime::run_design(
      qc, nodes, composed, DesignKind::Original, 3, 47, 1);
  const AggregateResult fast = runtime::run_design(
      qc, nodes, swap_go, DesignKind::Original, 3, 47, 1);
  EXPECT_GT(slow.depth.mean(), 3.0 * fast.depth.mean());
  EXPECT_EQ(fast.avg_route_hops.mean(), 4.0);
  EXPECT_GT(fast.entanglement_swaps.mean(), 0.0);
}

// ----------------------------------------------------------- determinism ----

using test_support::expect_identical;

/// 8 qubits over 4 ring nodes with traffic on four node pairs, two of them
/// non-adjacent (multi-hop).
Circuit ring_circuit() {
  Circuit qc(8);
  for (int rep = 0; rep < 3; ++rep) {
    qc.rzz(1, 2, 0.1);  // nodes 0-1, adjacent
    qc.rzz(3, 4, 0.1);  // nodes 1-2, adjacent
    qc.rzz(0, 5, 0.1);  // nodes 0-2, across the ring
    qc.rzz(2, 7, 0.1);  // nodes 1-3, across the ring
    qc.h(6);
  }
  return qc;
}

TEST(CongestionDeterminism, OutageRePlanningIsThreadCountInvariant) {
  // Outage boundaries re-route every link over the surviving subgraph and
  // (in swap mode) re-serve every link; the whole machinery must stay
  // bit-identical across thread counts.
  const Circuit qc = ring_circuit();
  const std::vector<int> nodes = {0, 0, 1, 1, 2, 2, 3, 3};
  scenario::Scenario scn;
  scn.link_outages.push_back({0, 1, 60.0, 40.0});
  scn.link_outages.push_back({1, 2, 150.0, 30.0});

  for (const bool swap_go : {false, true}) {
    ArchConfig config;
    config.num_nodes = 4;
    config.set_topology(Topology::ring(4));
    config.set_scenario(scn);
    config.share_edge_capacity = !swap_go;
    config.swap_as_you_go = swap_go;
    for (const DesignKind design : runtime::distributed_designs()) {
      const AggregateResult serial =
          runtime::run_design(qc, nodes, config, design, 8, 900, 1);
      for (const int threads : {0, 4}) {
        SCOPED_TRACE(std::string(swap_go ? "swap_go" : "composed") + " " +
                     runtime::design_name(design) + " @ " +
                     std::to_string(threads) + " threads");
        const AggregateResult parallel =
            runtime::run_design(qc, nodes, config, design, 8, 900, threads);
        expect_identical(serial, parallel);
      }
    }
  }
}

}  // namespace
}  // namespace dqcsim::net
