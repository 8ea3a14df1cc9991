/// Engine-level tests for degraded-mode delivery under faults: mid-flight
/// pair salvage (swap-as-you-go and composed), the trial sim-time budget,
/// and the determinism contract for the full cross product of the opt-in
/// engine knobs (thread-count invariance under drift + outages).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "expect_identical.hpp"
#include "net/topology.hpp"
#include "runtime/arch_config.hpp"
#include "runtime/engine.hpp"
#include "runtime/experiment.hpp"
#include "scenario/scenario.hpp"

namespace dqcsim::runtime {
namespace {

using dqcsim::Circuit;
using scenario::DriftField;
using scenario::DriftTrack;
using scenario::Scenario;

RunResult run_once(const Circuit& qc, const std::vector<int>& nodes,
                   const ArchConfig& config, DesignKind design,
                   std::uint64_t seed = 1) {
  ExecutionEngine engine(qc, nodes, config, design, seed);
  return engine.run();
}

// ------------------------------------------------------------ validation ----

TEST(DegradedConfig, ValidateCatchesBadKnobs) {
  ArchConfig config;
  config.max_trial_sim_time = 0.0;
  EXPECT_THROW(config.validate(), ConfigError);
  config.max_trial_sim_time = -5.0;
  EXPECT_THROW(config.validate(), ConfigError);
  config.max_trial_sim_time = 1.0;
  EXPECT_NO_THROW(config.validate());
}

// -------------------------------------------------------------- salvage -----

/// Chain(3) with qubit 0's wire busy on local work for ~30 time units, then
/// three serialized remote gates between the end nodes. The edge buffers
/// fill before the outage at t=15 severs the route; the remote gates only
/// become ready mid-outage, so they either salvage the pre-outage stock or
/// stall until the repair at t=2015.
Circuit salvage_circuit() {
  Circuit qc(6);
  for (int i = 0; i < 300; ++i) qc.h(0);  // 30 units on wire 0
  for (int i = 0; i < 3; ++i) qc.rzz(0, 4, 0.1);
  return qc;
}

ArchConfig salvage_config(bool swap_go, bool salvage) {
  ArchConfig config;
  config.num_nodes = 3;
  config.set_topology(net::Topology::chain(3));
  config.p_succ = 0.9;  // buffers fill within the first window or two
  Scenario scn;
  scn.link_outages.push_back({0, 1, 15.0, 2000.0});
  config.set_scenario(scn);
  config.swap_as_you_go = swap_go;
  config.salvage_pairs = salvage;
  return config;
}

TEST(Salvage, SwapGoServesSeveredRouteFromSurvivingStock) {
  const Circuit qc = salvage_circuit();
  const std::vector<int> nodes = {0, 0, 1, 1, 2, 2};

  const RunResult off = run_once(qc, nodes, salvage_config(true, false),
                                 DesignKind::AsyncBuf);
  const RunResult on = run_once(qc, nodes, salvage_config(true, true),
                                DesignKind::AsyncBuf);

  // Without salvage the gates stall until the repair window ends.
  EXPECT_EQ(off.pairs_salvaged, 0u);
  EXPECT_GT(off.depth, 2000.0);
  // With salvage every gate completes on pre-outage stock: all three pairs
  // are rescued and the trial ends orders of magnitude earlier.
  EXPECT_GE(on.pairs_salvaged, 3u);
  EXPECT_LT(on.depth, 100.0);
  // The route itself stays severed either way — salvage shortens the
  // trial, which is what bounds the accrued downtime.
  EXPECT_GT(off.outage_downtime, 10.0 * on.outage_downtime);
}

TEST(Salvage, SwapGoStockDiesWithADownNode) {
  // Same shape, but the *middle node* goes down: its stored halves are
  // lost (flushed and counted as discarded), so nothing can be salvaged.
  const Circuit qc = salvage_circuit();
  const std::vector<int> nodes = {0, 0, 1, 1, 2, 2};
  ArchConfig config = salvage_config(true, true);
  Scenario scn;
  scn.node_outages.push_back({1, 15.0, 2000.0});
  config.set_scenario(scn);

  const RunResult r = run_once(qc, nodes, config, DesignKind::AsyncBuf);
  EXPECT_EQ(r.pairs_salvaged, 0u);
  EXPECT_GT(r.pairs_discarded, 0u);
  EXPECT_GT(r.depth, 2000.0);  // gates wait for the node to come back
}

TEST(Salvage, ComposedModeCountsSalvageWithoutChangingResults) {
  // The composed engine never discards stock at boundaries, so the knob is
  // pure accounting there: bit-identical depth/fidelity, with consumption
  // while routeless now reported as salvage.
  const Circuit qc = salvage_circuit();
  const std::vector<int> nodes = {0, 0, 1, 1, 2, 2};

  const RunResult off = run_once(qc, nodes, salvage_config(false, false),
                                 DesignKind::AsyncBuf);
  const RunResult on = run_once(qc, nodes, salvage_config(false, true),
                                DesignKind::AsyncBuf);
  EXPECT_EQ(off.depth, on.depth);
  EXPECT_EQ(off.fidelity, on.fidelity);
  EXPECT_EQ(off.epr_attempts, on.epr_attempts);
  EXPECT_EQ(off.pairs_salvaged, 0u);
  EXPECT_GE(on.pairs_salvaged, 3u);
}

// ------------------------------------------------------------ truncation ----

TEST(Truncation, PermanentOutageTerminatesAtTheBudget) {
  Circuit qc(4);
  qc.rzz(0, 2, 0.1);
  const std::vector<int> nodes = {0, 0, 1, 1};
  ArchConfig config;
  config.num_nodes = 2;
  config.set_topology(net::Topology::chain(2));
  Scenario scn;
  scn.link_outages.push_back({0, 1, 0.0, 1e9});  // down from t=0, forever
  config.set_scenario(scn);
  config.max_trial_sim_time = 500.0;

  const RunResult r = run_once(qc, nodes, config, DesignKind::AsyncBuf);
  EXPECT_TRUE(r.truncated);
  // Depth reports the budget horizon (local-CNOT latency is 1.0) and the
  // severed link accrued downtime over the whole truncated trial.
  EXPECT_DOUBLE_EQ(r.depth, 500.0);
  EXPECT_DOUBLE_EQ(r.outage_downtime, 500.0);
}

TEST(Truncation, GenerousBudgetIsBitIdenticalToNoBudget) {
  Circuit qc(4);
  for (int i = 0; i < 6; ++i) qc.rzz(0, 2, 0.1);
  const std::vector<int> nodes = {0, 0, 1, 1};
  ArchConfig unbounded;
  unbounded.num_nodes = 2;
  unbounded.set_topology(net::Topology::chain(2));
  ArchConfig bounded = unbounded;
  bounded.max_trial_sim_time = 1e9;

  for (const DesignKind design : distributed_designs()) {
    SCOPED_TRACE(design_name(design));
    const RunResult a = run_once(qc, nodes, unbounded, design);
    const RunResult b = run_once(qc, nodes, bounded, design);
    EXPECT_FALSE(b.truncated);
    EXPECT_EQ(a.depth, b.depth);
    EXPECT_EQ(a.fidelity, b.fidelity);
    EXPECT_EQ(a.epr_attempts, b.epr_attempts);
  }
}

// ----------------------------------------------------------- determinism ----

using test_support::expect_identical;

/// 8 qubits over 4 nodes with remote traffic on four node pairs.
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

/// Drift + deterministic and stochastic outages, exercising every scenario
/// component the degraded knobs interact with.
Scenario faulty_scenario() {
  Scenario scn;
  DriftTrack walk;
  walk.field = DriftField::PSucc;
  walk.walk_interval = 25.0;
  walk.walk_step = 0.15;
  scn.drift.push_back(walk);
  scn.link_outages.push_back({1, 2, 60.0, 40.0});
  scn.node_outages.push_back({3, 150.0, 30.0});
  scn.random_failures.mtbf = 500.0;
  scn.random_failures.duration = 35.0;
  return scn;
}

/// One half of the full cross product of the opt-in engine knobs —
/// swap_as_you_go x salvage_pairs x {no budget, max_trial_sim_time 900} at
/// the given share_edge_capacity — under drift + outages, for every
/// distributed design: each combination must be bit-identical at every
/// thread count. The two tests below cover both halves, 16 combinations.
void expect_knob_combos_thread_count_invariant(bool share_edge_capacity) {
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = {0, 0, 1, 1, 2, 2, 3, 3};
  constexpr int kRuns = 6;
  constexpr std::uint64_t kSeed = 1200;

  for (unsigned combo = 0; combo < 8; ++combo) {
    ArchConfig config;
    config.num_nodes = 4;
    config.set_topology(net::Topology::ring(4));
    config.set_scenario(faulty_scenario());
    config.share_edge_capacity = share_edge_capacity;
    config.swap_as_you_go = (combo & 1u) != 0;
    config.salvage_pairs = (combo & 2u) != 0;
    if ((combo & 4u) != 0) config.max_trial_sim_time = 900.0;
    const std::string name =
        std::string("share=") + (config.share_edge_capacity ? "1" : "0") +
        " swap_go=" + (config.swap_as_you_go ? "1" : "0") +
        " salvage=" + (config.salvage_pairs ? "1" : "0") +
        " budget=" + ((combo & 4u) != 0 ? "900" : "none");
    for (const DesignKind design : distributed_designs()) {
      const AggregateResult serial =
          run_design(qc, nodes, config, design, kRuns, kSeed, /*threads=*/1);
      for (const int threads : {0, 2, 4}) {
        SCOPED_TRACE(name + " " + design_name(design) + " @ " +
                     std::to_string(threads) + " threads");
        const AggregateResult parallel =
            run_design(qc, nodes, config, design, kRuns, kSeed, threads);
        expect_identical(serial, parallel);
      }
    }
  }
}

TEST(DegradedDeterminism, EveryKnobComboIsThreadCountInvariant) {
  // Independent per-link capacity.
  expect_knob_combos_thread_count_invariant(/*share_edge_capacity=*/false);
}

TEST(CongestionDeterminism, EveryKnobCombinationIsThreadCountInvariant) {
  // Routes contend for shared per-edge capacity.
  expect_knob_combos_thread_count_invariant(/*share_edge_capacity=*/true);
}

}  // namespace
}  // namespace dqcsim::runtime
