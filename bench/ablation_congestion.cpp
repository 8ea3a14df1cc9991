/// \file ablation_congestion.cpp
/// \brief Ablation: edge-capacity contention and swap-as-you-go delivery.
///
/// Two sweeps isolate what the opt-in contention modes change:
///
///  1. Star-hub sharing (star(8), 28 comm + 28 buffer qubits per node, so
///     every hub edge owns 4 pairs): k in {1, 2, 4, 6} logical routes all
///     crossing the hub-leaf edge of node 1. The legacy engine lets every
///     route draw the edge's full budget concurrently — hub throughput is
///     k-independent. With ArchConfig::share_edge_capacity the k routes
///     split the 4 pairs, so depth grows with the route count; the ratio
///     column is the congestion penalty the legacy numbers hide.
///
///  2. Chain@16 delivery model (chain(16), end-to-end and half-length
///     traffic): the composed model generates all hops of a route within
///     one attempt window (success p_succ^hops — the ablation_topology
///     chain@16 cliff), while ArchConfig::swap_as_you_go buffers pairs at
///     intermediate nodes and fuses on demand, one buffered pair per hop.
///     The composed rows cap their trial count (the cliff makes each run
///     ~1e5 windows); the ratio is the headline speedup.
///
/// All results derive from fixed seeds, so the depth/fidelity counters are
/// bit-stable across machines and CI gates them exactly against
/// ci/bench_baseline.json (timing gates are widened via gate_threshold).

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace dqcsim;

/// k remote pairs all routed through the hub edge of node 1: qubit 0 sits
/// on node 1 and talks to one qubit on each of nodes 2 .. k+1.
Circuit hub_circuit(int k) {
  Circuit qc(k + 1);
  for (int rep = 0; rep < 4; ++rep) {
    for (int i = 1; i <= k; ++i) qc.rzz(0, i, 0.1);
  }
  return qc;
}

std::vector<int> hub_assignment(int k) {
  std::vector<int> nodes(static_cast<std::size_t>(k) + 1);
  nodes[0] = 1;
  for (int i = 1; i <= k; ++i) nodes[static_cast<std::size_t>(i)] = i + 1;
  return nodes;
}

/// Long-haul chain traffic: one qubit per node, an end-to-end pair and a
/// half-length pair (13 and 11 hops on chain(16)).
Circuit chain_circuit(int nodes) {
  Circuit qc(nodes);
  for (int rep = 0; rep < 2; ++rep) {
    qc.rzz(0, nodes - 3, 0.1);
    qc.rzz(2, nodes - 1, 0.1);
  }
  return qc;
}

struct Cell {
  runtime::AggregateResult agg;
  double ns_per_run = 0.0;
};

Cell run_cell(const Circuit& qc, const std::vector<int>& nodes,
              const runtime::ArchConfig& config, int runs) {
  Cell cell;
  const auto t0 = std::chrono::steady_clock::now();
  cell.agg = runtime::run_design(qc, nodes, config,
                                 runtime::DesignKind::AsyncBuf, runs);
  const auto t1 = std::chrono::steady_clock::now();
  cell.ns_per_run =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(runs);
  return cell;
}

void add_kernel(bench::BenchReport& report, const std::string& name,
                const Cell& cell, int runs) {
  bench::KernelResult r;
  r.name = name;
  std::cerr << name << ": " << (cell.ns_per_run * 1e-6) << " ms/run\n";
  r.iterations = 1.0;
  r.ns_per_op = cell.ns_per_run;
  r.items_per_s = 1e9 / cell.ns_per_run;
  r.counters = {{"depth_mean", cell.agg.depth.mean()},
                {"fidelity_mean", cell.agg.fidelity.mean()},
                {"max_edge_load_mean", cell.agg.max_edge_load.mean()}};
  bench::add_work_counters(r.counters, cell.agg);
  report.add(std::move(r));
  (void)runs;
}

}  // namespace

int main() {
  std::cout << "=== Ablation: edge contention & swap-as-you-go ===\n\n";

  const int runs = bench::runs_from_env();
  bench::BenchReport report("ablation_congestion");

  // ---- sweep 1: star-hub capacity sharing --------------------------------
  TablePrinter star_table({"routes", "depth indep", "depth shared", "ratio",
                           "hub load", "fid indep", "fid shared"});
  CsvWriter star_csv(
      bench::csv_path("ablation_congestion_star"),
      {"routes", "depth_independent", "depth_shared", "depth_ratio",
       "max_edge_load", "fidelity_independent", "fidelity_shared"});

  for (const int k : {1, 2, 4, 6}) {
    const Circuit qc = hub_circuit(k);
    const std::vector<int> nodes = hub_assignment(k);
    runtime::ArchConfig config;
    config.num_nodes = 8;
    config.comm_per_node = 28;  // hub degree 7 -> 4 pairs per hub edge
    config.buffer_per_node = 28;
    config.record_arrival_trace = false;
    config.set_topology(net::Topology::star(8));

    const Cell indep = run_cell(qc, nodes, config, runs);
    config.share_edge_capacity = true;
    const Cell shared = run_cell(qc, nodes, config, runs);

    const std::string tag = "star8/routes=" + std::to_string(k);
    add_kernel(report, tag + "/independent", indep, runs);
    add_kernel(report, tag + "/shared", shared, runs);

    const double ratio = shared.agg.depth.mean() / indep.agg.depth.mean();
    star_table.add_row({TablePrinter::fmt(k),
                        TablePrinter::fmt(indep.agg.depth.mean(), 1),
                        TablePrinter::fmt(shared.agg.depth.mean(), 1),
                        TablePrinter::fmt(ratio, 2),
                        TablePrinter::fmt(shared.agg.max_edge_load.mean(), 0),
                        TablePrinter::fmt(indep.agg.fidelity.mean(), 4),
                        TablePrinter::fmt(shared.agg.fidelity.mean(), 4)});
    star_csv.add_row({std::to_string(k),
                      TablePrinter::fmt(indep.agg.depth.mean(), 3),
                      TablePrinter::fmt(shared.agg.depth.mean(), 3),
                      TablePrinter::fmt(ratio, 4),
                      TablePrinter::fmt(shared.agg.max_edge_load.mean(), 0),
                      TablePrinter::fmt(indep.agg.fidelity.mean(), 5),
                      TablePrinter::fmt(shared.agg.fidelity.mean(), 5)});
  }
  std::cout << "Star-hub capacity sharing (star(8), 4 pairs per hub edge):\n";
  star_table.print(std::cout);

  // ---- sweep 2: chain@16 composed vs swap-as-you-go ----------------------
  TablePrinter chain_table({"mode", "runs", "depth", "fidelity",
                            "avg hops", "rel. composed"});
  CsvWriter chain_csv(bench::csv_path("ablation_congestion_chain"),
                      {"mode", "runs", "depth_mean", "fidelity_mean",
                       "avg_route_hops", "depth_rel_composed"});

  const int chain_nodes = 16;
  const Circuit qc = chain_circuit(chain_nodes);
  std::vector<int> nodes(chain_nodes);
  for (int i = 0; i < chain_nodes; ++i) nodes[static_cast<std::size_t>(i)] = i;
  runtime::ArchConfig config;
  config.num_nodes = chain_nodes;
  config.comm_per_node = 16;
  config.buffer_per_node = 16;
  config.record_arrival_trace = false;
  config.set_topology(net::Topology::chain(chain_nodes));

  // The composed rows pay the p_succ^hops cliff (~0.4^13 per window): cap
  // their trial count so the sweep stays minutes, not hours, at the full
  // paper run count.
  const int composed_runs = std::min(runs, 4);
  if (composed_runs < runs) {
    std::cerr << "composed rows capped at " << composed_runs << " of " << runs
              << " runs (p_succ^hops cliff)\n";
  }
  const Cell composed = run_cell(qc, nodes, config, composed_runs);
  config.swap_as_you_go = true;
  const Cell swap_go = run_cell(qc, nodes, config, runs);

  add_kernel(report, "chain16/composed", composed, composed_runs);
  add_kernel(report, "chain16/swap_as_you_go", swap_go, runs);

  const double speedup = composed.agg.depth.mean() / swap_go.agg.depth.mean();
  chain_table.add_row({"composed", TablePrinter::fmt(composed_runs),
                       TablePrinter::fmt(composed.agg.depth.mean(), 1),
                       TablePrinter::fmt(composed.agg.fidelity.mean(), 4),
                       TablePrinter::fmt(composed.agg.avg_route_hops.mean(), 1),
                       "1.00"});
  chain_table.add_row({"swap_as_you_go", TablePrinter::fmt(runs),
                       TablePrinter::fmt(swap_go.agg.depth.mean(), 1),
                       TablePrinter::fmt(swap_go.agg.fidelity.mean(), 4),
                       TablePrinter::fmt(swap_go.agg.avg_route_hops.mean(), 1),
                       TablePrinter::fmt(1.0 / speedup, 4)});
  chain_csv.add_row({"composed", std::to_string(composed_runs),
                     TablePrinter::fmt(composed.agg.depth.mean(), 3),
                     TablePrinter::fmt(composed.agg.fidelity.mean(), 5),
                     TablePrinter::fmt(composed.agg.avg_route_hops.mean(), 2),
                     "1.0"});
  chain_csv.add_row({"swap_as_you_go", std::to_string(runs),
                     TablePrinter::fmt(swap_go.agg.depth.mean(), 3),
                     TablePrinter::fmt(swap_go.agg.fidelity.mean(), 5),
                     TablePrinter::fmt(swap_go.agg.avg_route_hops.mean(), 2),
                     TablePrinter::fmt(1.0 / speedup, 6)});

  std::cout << "\nChain@16 delivery model (composed window vs buffered "
               "swap-as-you-go):\n";
  chain_table.print(std::cout);
  std::cout << "\nswap-as-you-go depth speedup over the composed model: "
            << TablePrinter::fmt(speedup, 1) << "x\n";
  report.write();

  std::cout << "\nExpected shape: shared capacity leaves the single-route "
               "star untouched and degrades hub throughput as routes pile "
               "onto one edge; swap-as-you-go collapses the composed "
               "model's exponential chain@16 depth cliff while paying the "
               "same swap-chain fidelity cost.\n";
  return 0;
}
