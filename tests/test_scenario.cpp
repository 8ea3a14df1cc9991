/// Unit tests for the fault & drift scenario engine: ScenarioRuntime
/// schedule evaluation, Scenario/ArchConfig validation, the determinism
/// contract (same seed => bit-identical results across thread counts, with
/// drift and outages enabled), the null/no-op scenario bit-identity
/// guarantee, and end-to-end re-routing behavior under outages.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "expect_identical.hpp"
#include "gen/benchmarks.hpp"
#include "net/topology.hpp"
#include "runtime/arch_config.hpp"
#include "runtime/engine.hpp"
#include "runtime/experiment.hpp"
#include "scenario/runtime.hpp"
#include "scenario/scenario.hpp"

namespace dqcsim::scenario {
namespace {

using dqcsim::Circuit;
using runtime::AggregateResult;
using runtime::ArchConfig;
using runtime::DesignKind;
using runtime::RunResult;

// ------------------------------------------------- ScenarioRuntime units ----

/// A fabric-wide random walk on `field`: steps every `interval`, each
/// multiplying the scale by 1 + u, u in [-step, +step], clamped to [lo, hi].
DriftTrack walk(DriftField field, double interval, double step,
                double lo = 0.5, double hi = 1.5) {
  DriftTrack track;
  track.field = field;
  track.walk_interval = interval;
  track.walk_step = step;
  track.walk_min = lo;
  track.walk_max = hi;
  return track;
}

TEST(ScenarioRuntime, WalkDriftIsPiecewiseConstantOnItsGrid) {
  const net::Topology topo = net::Topology::chain(2);
  Scenario scn;
  scn.drift.push_back(walk(DriftField::PSucc, 10.0, 0.3));
  scn.validate(topo);

  ScenarioRuntime rt;
  rt.begin_trial(scn, topo, 3);
  // Scale 1 until the first grid point, then one level per grid step.
  EXPECT_DOUBLE_EQ(rt.effective_p_succ(0.4, 0.0), 0.4);
  EXPECT_DOUBLE_EQ(rt.effective_p_succ(0.4, 9.99), 0.4);
  bool moved = false;
  for (double k = 1.0; k < 20.0; k += 1.0) {
    const double level = rt.effective_p_succ(0.4, 10.0 * k);
    EXPECT_EQ(rt.effective_p_succ(0.4, 10.0 * k + 9.99), level) << "k=" << k;
    if (level != 0.4) moved = true;
  }
  EXPECT_TRUE(moved) << "a walk with a nonzero step never moved";
}

TEST(ScenarioRuntime, EffectiveValuesAreClampedIntoDomain) {
  const net::Topology topo = net::Topology::chain(2);
  Scenario scn;
  // Walks pinned by their clamp: scale 10 and 0.01 from the first step on.
  scn.drift = {walk(DriftField::PSucc, 1.0, 0.0, 10.0, 10.0),
               walk(DriftField::F0, 1.0, 0.0, 0.01, 0.01)};
  scn.validate(topo);

  ScenarioRuntime rt;
  rt.begin_trial(scn, topo, 1);
  EXPECT_DOUBLE_EQ(rt.effective_p_succ(0.4, 1.0), 1.0);  // clamped up
  EXPECT_DOUBLE_EQ(rt.effective_f0(0.99, 1.0), 0.25);    // clamped down
}

TEST(ScenarioRuntime, RandomWalkIsSeedDeterministicAndBounded) {
  const net::Topology topo = net::Topology::chain(2);
  Scenario scn;
  const DriftTrack track = walk(DriftField::PSucc, 5.0, 0.3);
  scn.drift.push_back(track);
  scn.validate(topo);

  ScenarioRuntime a;
  ScenarioRuntime b;
  ScenarioRuntime c;
  a.begin_trial(scn, topo, 7);
  b.begin_trial(scn, topo, 7);
  c.begin_trial(scn, topo, 8);
  bool any_different_seed_diff = false;
  for (double t = 0.0; t < 200.0; t += 5.0) {
    const double pa = a.effective_p_succ(0.4, t);
    EXPECT_EQ(pa, b.effective_p_succ(0.4, t)) << "t=" << t;
    EXPECT_GE(pa, 0.4 * track.walk_min);
    EXPECT_LE(pa, 0.4 * track.walk_max);
    if (pa != c.effective_p_succ(0.4, t)) any_different_seed_diff = true;
  }
  EXPECT_TRUE(any_different_seed_diff) << "distinct seeds produced one walk";
  // Random access in past time returns the memoized level, not a re-draw.
  EXPECT_EQ(a.effective_p_succ(0.4, 0.0), b.effective_p_succ(0.4, 0.0));
}

TEST(ScenarioRuntime, LinkOutageIntervalAndBoundaries) {
  const net::Topology topo = net::Topology::ring(4);
  Scenario scn;
  scn.link_outages.push_back({0, 1, 5.0, 3.0});
  scn.validate(topo);

  ScenarioRuntime rt;
  rt.begin_trial(scn, topo, 1);
  const std::size_t e01 = topo.edge_index(0, 1);
  const std::size_t e12 = topo.edge_index(1, 2);
  EXPECT_TRUE(rt.edge_up(e01, 4.9));
  EXPECT_FALSE(rt.edge_up(e01, 5.0));
  EXPECT_FALSE(rt.edge_up(e01, 7.9));
  EXPECT_TRUE(rt.edge_up(e01, 8.0));  // [start, start + duration)
  EXPECT_TRUE(rt.edge_up(e12, 6.0));

  ASSERT_TRUE(rt.next_boundary(0.0).has_value());
  EXPECT_DOUBLE_EQ(*rt.next_boundary(0.0), 5.0);
  EXPECT_DOUBLE_EQ(*rt.next_boundary(5.0), 8.0);
  EXPECT_FALSE(rt.next_boundary(8.0).has_value());
}

TEST(ScenarioRuntime, NodeOutageTakesDownAllIncidentEdges) {
  const net::Topology topo = net::Topology::ring(4);
  Scenario scn;
  scn.node_outages.push_back({0, 2.0, 4.0});
  scn.validate(topo);

  ScenarioRuntime rt;
  rt.begin_trial(scn, topo, 1);
  EXPECT_FALSE(rt.node_up(0, 3.0));
  EXPECT_TRUE(rt.node_up(1, 3.0));
  EXPECT_FALSE(rt.edge_up(topo.edge_index(0, 1), 3.0));
  EXPECT_FALSE(rt.edge_up(topo.edge_index(0, 3), 3.0));
  EXPECT_TRUE(rt.edge_up(topo.edge_index(1, 2), 3.0));
  EXPECT_TRUE(rt.edge_up(topo.edge_index(0, 1), 6.0));
}

TEST(ScenarioRuntime, RandomFailuresAreSeedDeterministicAndHonorHorizon) {
  const net::Topology topo = net::Topology::chain(3);
  Scenario scn;
  scn.random_failures.mtbf = 10.0;
  scn.random_failures.duration = 2.0;
  scn.horizon = 100.0;
  scn.validate(topo);

  ScenarioRuntime a;
  ScenarioRuntime b;
  a.begin_trial(scn, topo, 42);
  b.begin_trial(scn, topo, 42);

  // Walk the full boundary sequence on both; it must match exactly and
  // terminate (every failure starts at or before the horizon).
  std::vector<double> seq_a;
  double t = 0.0;
  while (auto next = a.next_boundary(t)) {
    seq_a.push_back(*next);
    t = *next;
    ASSERT_LT(seq_a.size(), 1000u) << "boundary sequence did not terminate";
  }
  EXPECT_FALSE(seq_a.empty());
  EXPECT_LE(seq_a.back(), scn.horizon + scn.random_failures.duration);

  t = 0.0;
  for (const double expected : seq_a) {
    const auto next = b.next_boundary(t);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(*next, expected);
    // Availability flips are consistent with the boundary sequence.
    t = *next;
  }
  EXPECT_FALSE(b.next_boundary(t).has_value());
}

// ------------------------------------------------------------ validation ----

TEST(ScenarioValidation, RejectsOutOfDomainSpecs) {
  const net::Topology topo = net::Topology::ring(4);

  {
    Scenario scn;  // outage must recover
    scn.link_outages.push_back({0, 1, 5.0, 0.0});
    EXPECT_THROW(scn.validate(topo), ConfigError);
  }
  {
    Scenario scn;  // edge absent from the topology
    scn.link_outages.push_back({0, 2, 5.0, 1.0});
    EXPECT_THROW(scn.validate(topo), ConfigError);
  }
  {
    Scenario scn;  // node out of range
    scn.node_outages.push_back({7, 5.0, 1.0});
    EXPECT_THROW(scn.validate(topo), ConfigError);
  }
  {
    Scenario scn;  // walk without an interval
    scn.drift.push_back(walk(DriftField::PSucc, 0.0, 0.1));
    EXPECT_THROW(scn.validate(topo), ConfigError);
  }
  {
    Scenario scn;  // walk step outside [0, 1)
    scn.drift.push_back(walk(DriftField::PSucc, 1.0, 1.0));
    EXPECT_THROW(scn.validate(topo), ConfigError);
  }
  {
    Scenario scn;  // walk clamp with walk_max < walk_min
    scn.drift.push_back(walk(DriftField::F0, 1.0, 0.1, 1.0, 0.9));
    EXPECT_THROW(scn.validate(topo), ConfigError);
  }
}

TEST(ScenarioValidation, ArchConfigRequiresTopologyForScenario) {
  ArchConfig config;
  config.num_nodes = 4;
  Scenario scn;
  scn.link_outages.push_back({0, 1, 5.0, 1.0});
  config.set_scenario(scn);
  EXPECT_THROW(config.validate(), ConfigError);  // no topology set

  config.set_topology(net::Topology::all_to_all(4));
  EXPECT_NO_THROW(config.validate());

  // Validation runs against the configured topology.
  config.set_topology(net::Topology::chain(4));
  Scenario bad;
  bad.link_outages.push_back({0, 3, 5.0, 1.0});  // not a chain edge
  config.set_scenario(bad);
  EXPECT_THROW(config.validate(), ConfigError);
}

// ----------------------------------------------------------- determinism ----

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

std::vector<int> four_node_assignment() { return {0, 0, 1, 1, 2, 2, 3, 3}; }

/// A scenario exercising every component class at once.
Scenario rich_scenario() {
  Scenario scn;
  scn.drift.push_back(walk(DriftField::PSucc, 25.0, 0.15));
  scn.drift.push_back(walk(DriftField::F0, 40.0, 0.01, 0.97, 1.0));
  scn.link_outages.push_back({1, 2, 60.0, 40.0});
  scn.node_outages.push_back({3, 150.0, 30.0});
  scn.random_failures.mtbf = 500.0;
  scn.random_failures.duration = 35.0;
  return scn;
}

using test_support::expect_identical;

TEST(ScenarioDeterminism, ParallelRunsAreBitIdenticalToSerialForEveryDesign) {
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  ArchConfig config;
  config.num_nodes = 4;
  config.set_topology(net::Topology::ring(4));
  config.set_scenario(rich_scenario());
  constexpr int kRuns = 8;
  constexpr std::uint64_t kSeed = 1000;

  for (const DesignKind design : runtime::distributed_designs()) {
    const AggregateResult serial = runtime::run_design(
        qc, nodes, config, design, kRuns, kSeed, /*threads=*/1);
    for (const int threads : {0, 2, 4}) {
      SCOPED_TRACE(runtime::design_name(design) + " @ " +
                   std::to_string(threads) + " threads");
      const AggregateResult parallel = runtime::run_design(
          qc, nodes, config, design, kRuns, kSeed, threads);
      expect_identical(serial, parallel);
    }
  }
}

TEST(ScenarioDeterminism, NoOpScenarioIsBitIdenticalToNullScenario) {
  // A scenario whose walks never step (walk_step = 0) scales by exactly 1.0
  // but exercises the full effective-parameter pipeline (provider calls,
  // composed-route folds), so it must still be bit-identical to the
  // stationary engine: base * 1.0 == base and the provider's fidelity fold
  // mirrors net::compose_route exactly.
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  ArchConfig null_config;
  null_config.num_nodes = 4;
  null_config.set_topology(net::Topology::ring(4));

  ArchConfig noop_config = null_config;
  Scenario noop;
  noop.drift.push_back(walk(DriftField::PSucc, 10.0, 0.0));
  noop.drift.push_back(walk(DriftField::F0, 25.0, 0.0));
  noop_config.set_scenario(noop);

  for (const DesignKind design : runtime::distributed_designs()) {
    SCOPED_TRACE(runtime::design_name(design));
    const AggregateResult a =
        runtime::run_design(qc, nodes, null_config, design, 6, 500, 1);
    AggregateResult b =
        runtime::run_design(qc, nodes, noop_config, design, 6, 500, 1);
    // Work, not results: a service under a provider walks windows that a
    // stationary one counts in bulk.
    b.gen_windows_walked = a.gen_windows_walked;
    expect_identical(a, b);
    EXPECT_EQ(b.reroutes.mean(), 0.0);
    EXPECT_EQ(b.outage_downtime.mean(), 0.0);
  }
}

TEST(ScenarioDeterminism, EmptyScenarioShortCircuitsToStationary) {
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  ArchConfig null_config;
  null_config.num_nodes = 4;
  null_config.set_topology(net::Topology::ring(4));
  ArchConfig empty_config = null_config;
  empty_config.set_scenario(Scenario{});  // empty() == true

  const AggregateResult a = runtime::run_design(
      qc, nodes, null_config, DesignKind::AsyncBuf, 6, 500, 1);
  const AggregateResult b = runtime::run_design(
      qc, nodes, empty_config, DesignKind::AsyncBuf, 6, 500, 1);
  expect_identical(a, b);
}

// --------------------------------------------------------- fault behavior ----

RunResult run_once(const Circuit& qc, const std::vector<int>& nodes,
                   const ArchConfig& config, DesignKind design,
                   std::uint64_t seed = 1) {
  runtime::ExecutionEngine engine(qc, nodes, config, design, seed);
  return engine.run();
}

TEST(ScenarioFaults, RingOutageReroutesOverSurvivingPath) {
  // Ring(4) with edge {0, 1} down from early on: the 0-1 logical link must
  // switch to the 3-hop detour 0-3-2-1 while live, paying entanglement
  // swaps it would never pay on the direct edge.
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  ArchConfig base;
  base.num_nodes = 4;
  base.set_topology(net::Topology::ring(4));

  ArchConfig faulty = base;
  Scenario scn;
  scn.link_outages.push_back({0, 1, 1.0, 1e6});
  faulty.set_scenario(scn);

  const RunResult healthy = run_once(qc, nodes, base, DesignKind::AsyncBuf);
  const RunResult outage = run_once(qc, nodes, faulty, DesignKind::AsyncBuf);

  EXPECT_EQ(healthy.reroutes, 0u);
  EXPECT_GE(outage.reroutes, 1u);
  // The live switch means the link is never routeless: no outage event, no
  // downtime — the detour absorbs the fault.
  EXPECT_EQ(outage.outage_events, 0u);
  EXPECT_DOUBLE_EQ(outage.outage_downtime, 0.0);
  EXPECT_GT(outage.entanglement_swaps, healthy.entanglement_swaps);
  EXPECT_LT(outage.fidelity, healthy.fidelity);
}

TEST(ScenarioFaults, ChainOutageRecoversAndAccruesDowntime) {
  // A chain has a unique path: an outage on a middle edge cannot detour, so
  // the link goes down, traffic stalls, and the recovery at start+duration
  // counts as a reroute with the downtime accrued.
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  ArchConfig config;
  config.num_nodes = 4;
  config.set_topology(net::Topology::chain(4));
  Scenario scn;
  scn.link_outages.push_back({1, 2, 5.0, 80.0});
  config.set_scenario(scn);

  const RunResult result = run_once(qc, nodes, config, DesignKind::AsyncBuf);
  EXPECT_GE(result.reroutes, 1u);
  EXPECT_GE(result.outage_events, 1u);
  EXPECT_GT(result.outage_downtime, 0.0);
}

TEST(ScenarioFaults, ChainAt8WithRandomOutagesReportsReroutes) {
  // Acceptance scenario: QAOA on an 8-node chain under stochastic link
  // failures reports a positive mean reroute count across runs.
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const net::Topology topo = net::Topology::chain(8);
  const auto part = runtime::partition_circuit(qc, topo);
  ArchConfig config;
  config.num_nodes = 8;
  config.set_topology(topo);
  Scenario scn;
  scn.random_failures.mtbf = 400.0;
  scn.random_failures.duration = 60.0;
  config.set_scenario(scn);

  const AggregateResult agg = runtime::run_design(
      qc, part.assignment, config, DesignKind::AsyncBuf, 6, 1000, 0);
  EXPECT_GT(agg.reroutes.mean(), 0.0);
  EXPECT_GT(agg.outage_downtime.mean(), 0.0);
  EXPECT_GT(agg.depth.count(), 0u);
}

TEST(ScenarioFaults, TotalDisconnectionTerminatesUnderTheTrialBudget) {
  // Every node except one goes down at t=0 and never recovers: no route
  // survives and no remote gate can ever complete. The trial sim-time
  // budget turns the would-be infinite run into a clean truncated result
  // with the full downtime on the books — and the truncated trials stay
  // bit-identical across thread counts.
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  ArchConfig config;
  config.num_nodes = 4;
  config.set_topology(net::Topology::ring(4));
  Scenario scn;
  scn.node_outages.push_back({1, 0.0, 1e9});
  scn.node_outages.push_back({3, 0.0, 1e9});  // isolates every node pair
  config.set_scenario(scn);
  config.max_trial_sim_time = 400.0;

  const RunResult r = run_once(qc, nodes, config, DesignKind::AsyncBuf);
  EXPECT_TRUE(r.truncated);
  EXPECT_DOUBLE_EQ(r.depth, 400.0);
  EXPECT_GT(r.outage_downtime, 0.0);
  EXPECT_GE(r.outage_events, 1u);

  const AggregateResult serial = runtime::run_design(
      qc, nodes, config, DesignKind::AsyncBuf, 6, 800, /*threads=*/1);
  EXPECT_EQ(serial.truncated.mean(), 1.0);
  for (const int threads : {0, 2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const AggregateResult parallel = runtime::run_design(
        qc, nodes, config, DesignKind::AsyncBuf, 6, 800, threads);
    expect_identical(serial, parallel);
    expect_identical(serial.truncated, parallel.truncated, "truncated");
  }
}

TEST(ScenarioFaults, DriftOnlyScenarioDegradesFidelityWithoutReroutes) {
  // Quality drift perturbs pair statistics but never invalidates a route.
  const Circuit qc = four_node_circuit();
  const std::vector<int> nodes = four_node_assignment();
  ArchConfig base;
  base.num_nodes = 4;
  base.set_topology(net::Topology::ring(4));

  ArchConfig drifty = base;
  Scenario scn;
  // Pinned by its clamp at 0.96 from the first grid step on.
  scn.drift.push_back(walk(DriftField::F0, 1.0, 0.0, 0.96, 0.96));
  drifty.set_scenario(scn);

  const AggregateResult a =
      runtime::run_design(qc, nodes, base, DesignKind::AsyncBuf, 6, 300, 1);
  const AggregateResult b =
      runtime::run_design(qc, nodes, drifty, DesignKind::AsyncBuf, 6, 300, 1);
  EXPECT_LT(b.fidelity.mean(), a.fidelity.mean());
  EXPECT_EQ(b.reroutes.mean(), 0.0);
  EXPECT_EQ(b.outage_downtime.mean(), 0.0);
}

}  // namespace
}  // namespace dqcsim::scenario
