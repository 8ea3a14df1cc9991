/// Unit tests for the net/ subsystem: interconnect topologies, multi-hop
/// routing, entanglement-swap composition, part placement, and the
/// engine-level equivalence of an explicit all-to-all topology with the
/// legacy homogeneous interconnect.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "gen/benchmarks.hpp"
#include "net/mapping.hpp"
#include "net/router.hpp"
#include "net/swap.hpp"
#include "net/topology.hpp"
#include "noise/werner.hpp"
#include "runtime/arch_config.hpp"
#include "runtime/engine.hpp"
#include "runtime/experiment.hpp"

namespace dqcsim::net {
namespace {

using runtime::ArchConfig;
using runtime::DesignKind;
using runtime::RunResult;

// --------------------------------------------------------------- topology ----

TEST(Topology, BuildersProduceExpectedShapes) {
  const Topology chain = Topology::chain(5);
  EXPECT_EQ(chain.num_nodes(), 5);
  EXPECT_EQ(chain.num_edges(), 4u);
  EXPECT_EQ(chain.degree(0), 1);
  EXPECT_EQ(chain.degree(2), 2);
  EXPECT_TRUE(chain.has_edge(1, 2));
  EXPECT_FALSE(chain.has_edge(0, 4));
  EXPECT_EQ(chain.name(), "chain");

  const Topology ring = Topology::ring(6);
  EXPECT_EQ(ring.num_edges(), 6u);
  for (int v = 0; v < 6; ++v) EXPECT_EQ(ring.degree(v), 2);
  EXPECT_TRUE(ring.has_edge(0, 5));

  const Topology grid = Topology::grid(2, 3);
  EXPECT_EQ(grid.num_nodes(), 6);
  EXPECT_EQ(grid.num_edges(), 7u);  // 2 rows x 2 + 3 columns x 1
  EXPECT_TRUE(grid.has_edge(0, 1));   // same row
  EXPECT_TRUE(grid.has_edge(1, 4));   // same column
  EXPECT_FALSE(grid.has_edge(0, 4));  // diagonal

  const Topology star = Topology::star(5);
  EXPECT_EQ(star.num_edges(), 4u);
  EXPECT_EQ(star.degree(0), 4);
  EXPECT_EQ(star.degree(3), 1);
  EXPECT_EQ(star.max_degree(), 4);

  const Topology full = Topology::all_to_all(4);
  EXPECT_EQ(full.num_edges(), 6u);
  EXPECT_EQ(full.kind(), TopologyKind::AllToAll);
  EXPECT_EQ(full.name(), "all_to_all");
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) EXPECT_TRUE(full.has_edge(a, b));
  }
}

TEST(Topology, NeighborsAreSortedAndSymmetric) {
  const Topology ring = Topology::ring(5);
  EXPECT_EQ(ring.neighbors(0), (std::vector<int>{1, 4}));
  EXPECT_EQ(ring.neighbors(3), (std::vector<int>{2, 4}));
  EXPECT_EQ(ring.edge_index(4, 0), ring.edge_index(0, 4));
}

TEST(Topology, EveryBuilderValidatesAndConnects) {
  for (const Topology& t :
       {Topology::all_to_all(6), Topology::chain(6), Topology::ring(6),
        Topology::grid(2, 3), Topology::star(6)}) {
    EXPECT_NO_THROW(t.validate());
    EXPECT_TRUE(t.is_connected());
  }
}

TEST(Topology, CustomRejectsMalformedGraphs) {
  // Disconnected.
  EXPECT_THROW(Topology::custom(4, {{0, 1}, {2, 3}}), ConfigError);
  // Self loop.
  EXPECT_THROW(Topology::custom(3, {{0, 1}, {1, 2}, {2, 2}}), ConfigError);
  // Duplicate (also reversed).
  EXPECT_THROW(Topology::custom(3, {{0, 1}, {1, 2}, {1, 0}}), ConfigError);
  // Endpoint out of range.
  EXPECT_THROW(Topology::custom(3, {{0, 1}, {1, 3}}), ConfigError);
  // A valid custom graph passes.
  EXPECT_NO_THROW(Topology::custom(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}));
}

// ----------------------------------------------------------------- router ----

TEST(Router, ChainHopCountsAreExact) {
  const Router r(Topology::chain(6));
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      EXPECT_EQ(r.hop_distance(a, b), std::abs(a - b));
    }
  }
  const Route& route = r.route(1, 4);
  EXPECT_EQ(route.nodes, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(route.hops(), 3);
  EXPECT_DOUBLE_EQ(route.cost, 3.0);
}

TEST(Router, RingTakesTheShorterArc) {
  const Router r(Topology::ring(6));
  EXPECT_EQ(r.hop_distance(0, 1), 1);
  EXPECT_EQ(r.hop_distance(0, 2), 2);
  EXPECT_EQ(r.hop_distance(0, 3), 3);
  EXPECT_EQ(r.hop_distance(0, 4), 2);  // around the back
  EXPECT_EQ(r.hop_distance(0, 5), 1);
  EXPECT_EQ(r.route(0, 4).nodes, (std::vector<int>{0, 5, 4}));
}

TEST(Router, GridDistancesAreManhattan) {
  const Router r(Topology::grid(3, 3));
  // Node id = row * 3 + col.
  EXPECT_EQ(r.hop_distance(0, 8), 4);  // (0,0) -> (2,2)
  EXPECT_EQ(r.hop_distance(3, 5), 2);  // (1,0) -> (1,2)
  EXPECT_EQ(r.hop_distance(1, 7), 2);  // (0,1) -> (2,1)
}

TEST(Router, StarRoutesThroughTheHub) {
  const Router r(Topology::star(5));
  EXPECT_EQ(r.hop_distance(0, 3), 1);
  EXPECT_EQ(r.hop_distance(2, 4), 2);
  EXPECT_EQ(r.route(2, 4).nodes, (std::vector<int>{2, 0, 4}));
}

TEST(Router, CostAwareRoutingAvoidsExpensiveEdges) {
  // Triangle with a costly direct edge 0-2: the two-hop detour wins.
  const Topology t = Topology::custom(3, {{0, 1}, {1, 2}, {0, 2}});
  const Router hops(t);
  EXPECT_EQ(hops.hop_distance(0, 2), 1);
  const Router costed(t, {1.0, 1.0, 10.0});
  EXPECT_EQ(costed.hop_distance(0, 2), 2);
  EXPECT_EQ(costed.route(0, 2).nodes, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(costed.route(0, 2).cost, 2.0);
}

TEST(Router, TieBreaksAreDeterministic) {
  // ring(4): two equal-length arcs between opposite corners; the router
  // must pick the same one every time (smallest intermediate node id).
  const Router a(Topology::ring(4));
  const Router b(Topology::ring(4));
  EXPECT_EQ(a.route(0, 2).nodes, b.route(0, 2).nodes);
  EXPECT_EQ(a.route(0, 2).nodes, (std::vector<int>{0, 1, 2}));
}

TEST(Router, ReverseRoutesAreExactMirrorsEvenOnCostTies) {
  // Two routes from 0 to 4 tie at cost 4: 0-1-4 (3 + 1) and 0-2-3-4
  // (1 + 1 + 2). Whatever the tie-break picks, the reverse direction must
  // be the same path reversed — hop_distance(a, b) == hop_distance(b, a).
  const Topology t =
      Topology::custom(5, {{0, 1}, {1, 4}, {0, 2}, {2, 3}, {3, 4}});
  const Router r(t, {3.0, 1.0, 1.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(r.route(0, 4).cost, 4.0);
  EXPECT_EQ(r.hop_distance(0, 4), r.hop_distance(4, 0));
  std::vector<int> back = r.route(4, 0).nodes;
  std::reverse(back.begin(), back.end());
  EXPECT_EQ(r.route(0, 4).nodes, back);
  EXPECT_EQ(r.route(0, 4).edges,
            std::vector<std::size_t>(r.route(4, 0).edges.rbegin(),
                                     r.route(4, 0).edges.rend()));
}

TEST(Router, RejectsMismatchedCostsAndUnreachableQueries) {
  const Topology t = Topology::chain(3);
  EXPECT_THROW(Router(t, {1.0}), PreconditionError);
  EXPECT_THROW(Router(t, {1.0, 0.0}), PreconditionError);
  const Router r(t);
  EXPECT_THROW(r.route(0, 3), PreconditionError);
  EXPECT_THROW(r.route(-1, 0), PreconditionError);
}

TEST(Router, SelfPairContractIsConsistent) {
  // route(a, a) used to hard-assert while hop_distance(a, a) returned 0;
  // both now agree: the self-route exists, is empty, and costs nothing.
  const Router r(Topology::chain(3));
  for (int a = 0; a < 3; ++a) {
    EXPECT_EQ(r.hop_distance(a, a), 0);
    EXPECT_EQ(r.route(a, a).hops(), 0);
    EXPECT_DOUBLE_EQ(r.route(a, a).cost, 0.0);
    EXPECT_TRUE(r.has_route(a, a));
  }
}

TEST(Router, OneNodeTopologyIsRejectedBeforeRouting) {
  // The degenerate 1-node system has no edges; Topology::validate refuses
  // it, so a Router can never be built over one (the self-pair contract
  // above is the only place a == b is ever answered).
  EXPECT_THROW(Topology::custom(1, {}).validate(), ConfigError);
  EXPECT_THROW(Router(Topology::custom(1, {})), ConfigError);
}

TEST(Router, MaskedRouterRoutesOverSurvivingSubgraph) {
  // ring(4) with edge {0, 1} masked out: 0 reaches 1 the long way round.
  const Topology t = Topology::ring(4);
  const std::vector<double> costs(t.num_edges(), 1.0);
  std::vector<char> up(t.num_edges(), 1);
  up[t.edge_index(0, 1)] = 0;
  const Router masked(t, costs, up);
  EXPECT_TRUE(masked.has_route(0, 1));
  EXPECT_EQ(masked.route(0, 1).nodes, (std::vector<int>{0, 3, 2, 1}));
  EXPECT_EQ(masked.hop_distance(0, 1), 3);
}

TEST(Router, MaskedRouterToleratesDisconnection) {
  // chain(3) without its middle edge: node 2 is cut off, which a masked
  // router must report via has_route instead of failing to build.
  const Topology t = Topology::chain(3);
  const std::vector<double> costs(t.num_edges(), 1.0);
  std::vector<char> up(t.num_edges(), 1);
  up[t.edge_index(1, 2)] = 0;
  const Router masked(t, costs, up);
  EXPECT_TRUE(masked.has_route(0, 1));
  EXPECT_FALSE(masked.has_route(0, 2));
  EXPECT_FALSE(masked.has_route(1, 2));
  EXPECT_TRUE(masked.has_route(2, 2));
  EXPECT_EQ(masked.route(0, 2).hops(), 0);  // empty, not a path
  // A disabled edge may carry a nonsensical cost; only enabled ones are
  // checked.
  std::vector<double> bad_costs(t.num_edges(), 1.0);
  bad_costs[t.edge_index(1, 2)] = 0.0;
  EXPECT_NO_THROW(Router(t, bad_costs, up));
  std::vector<char> all_up(t.num_edges(), 1);
  EXPECT_THROW(Router(t, bad_costs, all_up), PreconditionError);
}

// ----------------------------------------------------------- swap model ----

TEST(Swap, SingleHopPassesThroughUnchanged) {
  const double f[] = {0.93};
  EXPECT_DOUBLE_EQ(swap_composed_fidelity(f, 1, 0.5), 0.93);
}

TEST(Swap, TwoHopIdealBsmMatchesHandComputedWerner) {
  // F = 0.95 per hop: w = (4*0.95 - 1) / 3 = 2.8/3; the swapped weight is
  // w^2 = 7.84/9, so F_end = (3 * 7.84/9 + 1) / 4.
  const double f[] = {0.95, 0.95};
  const double expected = (3.0 * (7.84 / 9.0) + 1.0) / 4.0;
  EXPECT_NEAR(swap_composed_fidelity(f, 2, 1.0), expected, 1e-12);
  EXPECT_NEAR(noise::werner_swapped_fidelity(0.95, 0.95), expected, 1e-12);
}

TEST(Swap, NoisyBsmMultipliesOneWeightPerSwap) {
  const double f[] = {0.95, 0.97, 0.99};
  const double w1 = noise::werner_weight_from_fidelity(0.95);
  const double w2 = noise::werner_weight_from_fidelity(0.97);
  const double w3 = noise::werner_weight_from_fidelity(0.99);
  const double wb = noise::werner_weight_from_fidelity(0.9);
  const double expected =
      noise::werner_fidelity_from_weight(w1 * w2 * w3 * wb * wb);
  EXPECT_NEAR(swap_composed_fidelity(f, 3, 0.9), expected, 1e-12);
  // A fully depolarizing BSM kills the pair: F = 0.25.
  EXPECT_DOUBLE_EQ(swap_composed_fidelity(f, 3, 0.25), 0.25);
}

TEST(Swap, ComposeRouteBottlenecksEveryResource) {
  const Topology t = Topology::chain(3);
  const Router r(t);
  std::vector<ent::LinkParams> edge_params(2);
  edge_params[0].num_comm_pairs = 4;
  edge_params[0].buffer_capacity = 6;
  edge_params[0].p_succ = 0.5;
  edge_params[0].cycle_time = 10.0;
  edge_params[0].f0 = 0.98;
  edge_params[1].num_comm_pairs = 2;
  edge_params[1].buffer_capacity = 3;
  edge_params[1].p_succ = 0.25;
  edge_params[1].cycle_time = 12.0;
  edge_params[1].f0 = 0.95;
  SwapParams swap;
  swap.bsm_fidelity = 0.99;
  swap.latency = 6.0;

  const RoutedLink link = compose_route(r.route(0, 2), edge_params, swap);
  EXPECT_EQ(link.hops, 2);
  EXPECT_EQ(link.params.num_comm_pairs, 2);
  EXPECT_EQ(link.params.buffer_capacity, 3);
  EXPECT_DOUBLE_EQ(link.params.p_succ, 0.125);
  EXPECT_DOUBLE_EQ(link.params.cycle_time, 12.0);
  const double f[] = {0.98, 0.95};
  EXPECT_DOUBLE_EQ(link.params.f0, swap_composed_fidelity(f, 2, 0.99));
  EXPECT_DOUBLE_EQ(link.extra_latency, 6.0);

  // A direct edge passes through untouched.
  const RoutedLink direct = compose_route(r.route(0, 1), edge_params, swap);
  EXPECT_EQ(direct.hops, 1);
  EXPECT_TRUE(direct.params == edge_params[0]);
  EXPECT_DOUBLE_EQ(direct.extra_latency, 0.0);
}

// ---------------------------------------------------------------- mapping ----

TEST(Mapping, FindsTheBruteForceOptimumOnAChain) {
  // Parts 0 and 3 talk the most; on a 4-chain they must end up adjacent.
  const int k = 4;
  TrafficMatrix traffic(16, 0);
  const auto set = [&](int p, int q, std::int64_t w) {
    traffic[static_cast<std::size_t>(p) * 4 + static_cast<std::size_t>(q)] =
        w;
    traffic[static_cast<std::size_t>(q) * 4 + static_cast<std::size_t>(p)] =
        w;
  };
  set(0, 3, 10);
  set(0, 1, 2);
  set(1, 2, 1);
  const Router router(Topology::chain(4));

  const std::vector<int> mapping = optimize_node_mapping(traffic, k, router);
  const std::int64_t found = mapped_cut_weight(traffic, k, mapping, router);

  std::vector<int> perm(4);
  std::iota(perm.begin(), perm.end(), 0);
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  do {
    best = std::min(best, mapped_cut_weight(traffic, k, perm, router));
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_EQ(found, best);
  // Parts 0 and 3 adjacent under the found mapping.
  EXPECT_EQ(std::abs(mapping[0] - mapping[3]), 1);
}

TEST(Mapping, AllToAllKeepsTheIdentity) {
  TrafficMatrix traffic(9, 0);
  traffic[0 * 3 + 1] = traffic[1 * 3 + 0] = 5;
  traffic[1 * 3 + 2] = traffic[2 * 3 + 1] = 7;
  const Router router(Topology::all_to_all(3));
  EXPECT_EQ(optimize_node_mapping(traffic, 3, router),
            (std::vector<int>{0, 1, 2}));
}

// ------------------------------------------------- ArchConfig integration ----

TEST(NetArchConfig, PerPairParamsWithoutTopologyMatchLegacy) {
  ArchConfig config;
  config.num_nodes = 4;
  const auto legacy = config.link_params(DesignKind::AsyncBuf);
  const auto per_pair = config.link_params(DesignKind::AsyncBuf, 1, 3);
  EXPECT_TRUE(legacy == per_pair);
}

TEST(NetArchConfig, PerPairParamsSplitByDegree) {
  ArchConfig config;
  config.num_nodes = 4;
  config.comm_per_node = 8;
  config.buffer_per_node = 8;
  config.set_topology(Topology::star(4));

  // Hub degree 3 bounds the split even though the leaf has degree 1.
  const auto link = config.link_params(DesignKind::SyncBuf, 0, 1);
  EXPECT_EQ(link.num_comm_pairs, 2);   // 8 / 3
  EXPECT_EQ(link.buffer_capacity, 2);  // 8 / 3
  // Every edge runs the architecture-wide link fields.
  EXPECT_DOUBLE_EQ(link.p_succ, config.p_succ);
  EXPECT_DOUBLE_EQ(link.cycle_time, config.lat.epr_cycle);
  EXPECT_TRUE(link == config.link_params(DesignKind::SyncBuf, 0, 2));

  // Leaf-to-leaf pairs have no physical edge: derived by routing only.
  EXPECT_THROW(config.link_params(DesignKind::SyncBuf, 1, 2), ConfigError);
  // Degree above the comm budget is rejected.
  config.comm_per_node = 2;
  EXPECT_THROW(config.link_params(DesignKind::SyncBuf, 0, 1), ConfigError);
}

TEST(NetArchConfig, ValidateCrossChecksTopology) {
  ArchConfig config;
  config.num_nodes = 4;
  config.set_topology(Topology::ring(5));
  EXPECT_THROW(config.validate(), ConfigError);
  config.set_topology(Topology::ring(4));
  EXPECT_NO_THROW(config.validate());
}

TEST(NetArchConfig, SwapParamsDeriveFromTableII) {
  const ArchConfig config;
  const SwapParams swap = config.swap_params();
  EXPECT_DOUBLE_EQ(swap.bsm_fidelity, 0.999 * 0.998 * 0.998);
  EXPECT_DOUBLE_EQ(swap.latency, 6.0);  // local CNOT + measurement
}

// -------------------------------------------------------- engine behavior ----

/// 8 qubits over 4 nodes with traffic on four node pairs plus local work.
Circuit four_node_circuit() {
  Circuit qc(8);
  for (int rep = 0; rep < 3; ++rep) {
    qc.rzz(1, 2, 0.1);  // nodes 0-1
    qc.rzz(3, 4, 0.1);  // nodes 1-2
    qc.rzz(5, 6, 0.1);  // nodes 2-3
    qc.rzz(7, 0, 0.1);  // nodes 3-0
    qc.rzz(0, 1, 0.1);  // local on node 0
    qc.h(2);
  }
  return qc;
}

std::vector<int> four_node_assignment() {
  return {0, 0, 1, 1, 2, 2, 3, 3};
}

TEST(NetEngine, ExplicitAllToAllIsBitIdenticalToLegacyForEveryDesign) {
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  for (const DesignKind design : runtime::distributed_designs()) {
    ArchConfig legacy;
    legacy.num_nodes = 4;
    ArchConfig topo = legacy;
    topo.set_topology(Topology::all_to_all(4));

    const auto a = runtime::run_design(qc, nodes, legacy, design, 6);
    const auto b = runtime::run_design(qc, nodes, topo, design, 6);
    EXPECT_DOUBLE_EQ(a.depth.mean(), b.depth.mean());
    EXPECT_DOUBLE_EQ(a.depth.stddev(), b.depth.stddev());
    EXPECT_DOUBLE_EQ(a.fidelity.mean(), b.fidelity.mean());
    EXPECT_DOUBLE_EQ(a.epr_wasted.mean(), b.epr_wasted.mean());
    EXPECT_DOUBLE_EQ(a.epr_expired.mean(), b.epr_expired.mean());
    EXPECT_DOUBLE_EQ(a.avg_pair_age.mean(), b.avg_pair_age.mean());
    EXPECT_DOUBLE_EQ(a.avg_remote_wait.mean(), b.avg_remote_wait.mean());
    EXPECT_DOUBLE_EQ(b.entanglement_swaps.mean(), 0.0);
    EXPECT_DOUBLE_EQ(b.avg_route_hops.mean(), 1.0);
  }
}

RunResult run_once(const Circuit& qc, const std::vector<int>& nodes,
                   const ArchConfig& config, DesignKind design,
                   std::uint64_t seed = 1) {
  return runtime::RunContext().execute(qc, nodes, config, design, seed);
}

TEST(NetEngine, ChainMultiHopPaysSwapLatency) {
  // 3-node chain, single remote gate between the ends: both hops herald
  // deterministically at t=10 and deposit at 11; one swap (local CNOT +
  // measurement = 6) delays the gate, which then runs for 1 unit.
  Circuit qc(3);
  qc.cx(0, 2);
  ArchConfig config;
  config.num_nodes = 3;
  config.p_succ = 1.0;
  config.set_topology(Topology::chain(3));
  const RunResult r =
      run_once(qc, {0, 1, 2}, config, DesignKind::SyncBuf);
  EXPECT_NEAR(r.depth, 18.0, 1e-9);  // 11 deposit + 6 swap + 1 gate
  EXPECT_EQ(r.entanglement_swaps, 1u);
  EXPECT_NEAR(r.avg_route_hops, 2.0, 1e-9);

  // The adjacent pair on the same topology pays no swap.
  Circuit adj(3);
  adj.cx(0, 1);
  const RunResult direct =
      run_once(adj, {0, 1, 2}, config, DesignKind::SyncBuf);
  EXPECT_NEAR(direct.depth, 12.0, 1e-9);
  EXPECT_EQ(direct.entanglement_swaps, 0u);
  EXPECT_GT(direct.fidelity_remote, r.fidelity_remote);
}

TEST(NetEngine, OnDemandMultiHopAlsoPaysTheSwapChain) {
  Circuit qc(3);
  qc.cx(0, 2);
  ArchConfig config;
  config.num_nodes = 3;
  config.p_succ = 1.0;
  config.set_topology(Topology::chain(3));
  // Bufferless original design: herald at t=10, swap chain 6, gate 1.
  const RunResult r =
      run_once(qc, {0, 1, 2}, config, DesignKind::Original);
  EXPECT_NEAR(r.depth, 17.0, 1e-9);
  EXPECT_EQ(r.entanglement_swaps, 1u);
}

TEST(NetEngine, StarLeavesRouteThroughTheHub) {
  Circuit qc(4);
  qc.cx(1, 2);  // leaves of the star
  ArchConfig config;
  config.num_nodes = 4;
  config.p_succ = 1.0;
  config.set_topology(Topology::star(4));
  const RunResult r =
      run_once(qc, {0, 1, 2, 3}, config, DesignKind::SyncBuf);
  EXPECT_EQ(r.entanglement_swaps, 1u);
  EXPECT_NEAR(r.avg_route_hops, 2.0, 1e-9);
}

TEST(NetEngine, CycleTimeShapesTheSchedule) {
  // Slowing the only edge's attempt cycle delays the remote gate exactly.
  Circuit qc(2);
  qc.cx(0, 1);
  ArchConfig config;
  config.p_succ = 1.0;
  config.lat.epr_cycle = 20.0;
  config.set_topology(Topology::chain(2));
  const RunResult r = run_once(qc, {0, 1}, config, DesignKind::SyncBuf);
  EXPECT_NEAR(r.depth, 22.0, 1e-9);  // 20 herald + 1 swap-in + 1 gate
}

TEST(NetEngine, DeterministicAcrossRunContextReuse) {
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  ArchConfig config;
  config.num_nodes = 4;
  config.set_topology(Topology::ring(4));
  runtime::RunContext ctx;
  const RunResult cold =
      ctx.execute(qc, nodes, config, DesignKind::AsyncBuf, 42);
  ctx.execute(qc, nodes, config, DesignKind::AsyncBuf, 7);
  const RunResult warm =
      ctx.execute(qc, nodes, config, DesignKind::AsyncBuf, 42);
  EXPECT_DOUBLE_EQ(cold.depth, warm.depth);
  EXPECT_DOUBLE_EQ(cold.fidelity, warm.fidelity);
  EXPECT_EQ(cold.epr_attempts, warm.epr_attempts);
  EXPECT_EQ(cold.entanglement_swaps, warm.entanglement_swaps);
}

TEST(NetEngine, MismatchedTopologyIsRejected) {
  Circuit qc(2);
  qc.cx(0, 1);
  ArchConfig config;  // num_nodes = 2
  config.set_topology(Topology::ring(4));
  EXPECT_THROW(run_once(qc, {0, 1}, config, DesignKind::SyncBuf), ConfigError);
}

/// The ConfigError message of one run, or "" when it does not throw one.
std::string config_error(const Circuit& qc, const std::vector<int>& nodes,
                         const ArchConfig& config, DesignKind design) {
  try {
    run_once(qc, nodes, config, design);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(NetEngine, PairSourceBelowPairQuotaIsRejected) {
  // State teleportation consumes two pairs per remote gate, and a gate is
  // served only on a full quota: a source that buffers fewer pairs would
  // leave it waiting forever. Links 0-2 and 1-2 both cross edge 1-2.
  Circuit qc(3);
  qc.cx(0, 2);
  qc.cx(1, 2);
  const std::vector<int> nodes = {0, 1, 2};
  ArchConfig config;
  config.num_nodes = 3;
  config.set_topology(Topology::chain(3));
  config.remote_impl = runtime::RemoteImpl::StateTeleport;
  config.buffer_per_node = 4;  // two slots per edge at node 1 (degree 2)
  EXPECT_EQ(config_error(qc, nodes, config, DesignKind::SyncBuf), "");

  // Sharing edge 1-2 halves its slots for each of the two routes.
  config.share_edge_capacity = true;
  EXPECT_NE(config_error(qc, nodes, config, DesignKind::SyncBuf)
                .find("link 0-2 buffers 1 pair(s)"),
            std::string::npos);

  // Swap-as-you-go holds a bufferless design's hop pairs in one slot.
  config.share_edge_capacity = false;
  config.swap_as_you_go = true;
  EXPECT_EQ(config_error(qc, nodes, config, DesignKind::SyncBuf), "");
  EXPECT_NE(config_error(qc, nodes, config, DesignKind::Original)
                .find("edge 0-1 buffers 1 pair(s)"),
            std::string::npos);
}

TEST(NetEngine, TopologyAwarePartitionRunsEndToEnd) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const Topology topo = Topology::ring(8);
  const auto part = runtime::partition_circuit(qc, topo);
  ASSERT_EQ(part.k, 8);
  EXPECT_GT(part.cut, 0);

  ArchConfig config;
  config.num_nodes = 8;
  config.comm_per_node = 16;
  config.buffer_per_node = 16;
  config.set_topology(topo);
  const auto agg = runtime::run_design(qc, part.assignment, config,
                                       DesignKind::AsyncBuf, 3);
  EXPECT_EQ(agg.depth.count(), 3u);
  EXPECT_GT(agg.depth.mean(), 0.0);
  EXPECT_GT(agg.fidelity.mean(), 0.0);
  EXPECT_LE(agg.fidelity.max(), 1.0);
  EXPECT_GE(agg.avg_route_hops.mean(), 1.0);
}

TEST(NetEngine, TopologyAwarePartitionBeatsNaivePlacementOnAChain) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const Topology topo = Topology::chain(8);
  const auto plain = runtime::partition_circuit(qc, 8);
  const auto routed = runtime::partition_circuit(qc, topo);

  // Same parts, possibly relabeled: the distance-scaled cut of the
  // topology-aware placement can only be at least as good.
  const Router router(topo);
  net::TrafficMatrix traffic(64, 0);
  for (std::size_t i = 0; i < qc.num_gates(); ++i) {
    const Gate& g = qc.gate(i);
    if (g.arity() != 2) continue;
    const auto p = static_cast<std::size_t>(
        plain.assignment[static_cast<std::size_t>(g.q0())]);
    const auto q = static_cast<std::size_t>(
        plain.assignment[static_cast<std::size_t>(g.q1())]);
    if (p == q) continue;
    ++traffic[p * 8 + q];
    ++traffic[q * 8 + p];
  }
  std::vector<int> identity(8);
  std::iota(identity.begin(), identity.end(), 0);
  const std::int64_t naive =
      mapped_cut_weight(traffic, 8, identity, router);
  EXPECT_LE(routed.cut, naive);
}

}  // namespace
}  // namespace dqcsim::net
