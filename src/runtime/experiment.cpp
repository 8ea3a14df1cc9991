#include "runtime/experiment.hpp"

#include <cstddef>

#include "circuit/interaction_graph.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "net/mapping.hpp"
#include "net/router.hpp"
#include "runtime/engine.hpp"

namespace dqcsim::runtime {

namespace {

/// Shared fidelity model for one architecture configuration.
noise::TeleportFidelityModel make_teleport_model(const ArchConfig& config) {
  noise::TeleportNoiseParams tele;
  tele.local_2q_fidelity = config.fid.local_cnot;
  tele.local_1q_fidelity = config.fid.one_qubit;
  tele.readout_fidelity = config.fid.measurement;
  return noise::TeleportFidelityModel(tele);
}

}  // namespace

partition::PartitionResult partition_circuit(const Circuit& circuit,
                                             int num_nodes,
                                             std::uint64_t seed) {
  const partition::Graph graph = interaction_graph(circuit);
  partition::PartitionOptions opts;
  opts.seed = seed;
  return partition::multilevel_partition(graph, num_nodes, opts);
}

partition::PartitionResult partition_circuit(const Circuit& circuit,
                                             const net::Topology& topology,
                                             std::uint64_t seed) {
  topology.validate();
  const int k = topology.num_nodes();
  partition::PartitionResult result = partition_circuit(circuit, k, seed);

  // Inter-part remote-gate traffic (the plain cut, resolved per pair).
  const auto uk = static_cast<std::size_t>(k);
  net::TrafficMatrix traffic(uk * uk, 0);
  for (std::size_t i = 0; i < circuit.num_gates(); ++i) {
    const Gate& g = circuit.gate(i);
    if (g.arity() != 2) continue;
    const auto p = static_cast<std::size_t>(
        result.assignment[static_cast<std::size_t>(g.q0())]);
    const auto q = static_cast<std::size_t>(
        result.assignment[static_cast<std::size_t>(g.q1())]);
    if (p == q) continue;
    ++traffic[p * uk + q];
    ++traffic[q * uk + p];
  }

  // Place parts on physical nodes to minimise the distance-scaled cut.
  const net::Router router(topology);  // hop-count metric
  const std::vector<int> mapping =
      net::optimize_node_mapping(traffic, k, router);
  for (int& node : result.assignment) {
    node = mapping[static_cast<std::size_t>(node)];
  }
  result.cut = net::mapped_cut_weight(traffic, k, mapping, router);
  return result;
}

AggregateResult run_design(const Circuit& circuit,
                           const std::vector<int>& assignment,
                           const ArchConfig& config, DesignKind design,
                           int runs, std::uint64_t base_seed, int threads) {
  DQCSIM_EXPECTS(runs >= 1);
  const noise::TeleportFidelityModel model = make_teleport_model(config);

  // Per-run results land in disjoint slots; the streaming aggregate is then
  // folded in run order, so thread count and completion order never change
  // a single bit of the statistics. Each worker reuses one RunContext
  // across its trials, so the steady-state trial loop allocates nothing.
  const std::size_t workers = parallel_worker_count(
      static_cast<std::size_t>(runs),
      threads <= 0 ? 0 : static_cast<std::size_t>(threads));
  std::vector<RunContext> contexts(workers);
  std::vector<RunResult> results(static_cast<std::size_t>(runs));
  parallel_for_workers(
      results.size(),
      [&](std::size_t worker, std::size_t r) {
        results[r] = contexts[worker].execute(
            circuit, assignment, config, design,
            base_seed + static_cast<std::uint64_t>(r), &model);
      },
      threads <= 0 ? 0 : static_cast<std::size_t>(threads));

  AggregateResult aggregate;
  for (const RunResult& run : results) aggregate.add(run);
  return aggregate;
}

std::vector<AggregateResult> run_design_matrix(
    const Circuit& circuit, const std::vector<int>& assignment,
    const std::vector<DesignPoint>& points, int runs, std::uint64_t base_seed,
    int threads) {
  DQCSIM_EXPECTS(runs >= 1);
  if (points.empty()) return {};

  std::vector<noise::TeleportFidelityModel> models;
  models.reserve(points.size());
  for (const DesignPoint& point : points) {
    models.push_back(make_teleport_model(point.config));
  }

  // One flat cell grid: all point x run pairs share the pool, so a sweep of
  // many small-run points parallelizes as well as one large run_design.
  // Cells are claimed in p-major order, so a worker's consecutive trials
  // usually share a design point and hit its RunContext's setup cache.
  const std::size_t num_runs = static_cast<std::size_t>(runs);
  std::vector<RunResult> cells(points.size() * num_runs);
  const std::size_t workers = parallel_worker_count(
      cells.size(), threads <= 0 ? 0 : static_cast<std::size_t>(threads));
  std::vector<RunContext> contexts(workers);
  parallel_for_workers(
      cells.size(),
      [&](std::size_t worker, std::size_t cell) {
        const std::size_t p = cell / num_runs;
        const std::size_t r = cell % num_runs;
        cells[cell] = contexts[worker].execute(
            circuit, assignment, points[p].config, points[p].design,
            base_seed + static_cast<std::uint64_t>(r), &models[p]);
      },
      threads <= 0 ? 0 : static_cast<std::size_t>(threads));

  std::vector<AggregateResult> aggregates(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t r = 0; r < num_runs; ++r) {
      aggregates[p].add(cells[p * num_runs + r]);
    }
  }
  return aggregates;
}

double ideal_depth(const Circuit& circuit, const ArchConfig& config) {
  return RunContext()
      .execute(circuit, {}, config, DesignKind::IdealMono, /*seed=*/0)
      .depth;
}

double ideal_fidelity(const Circuit& circuit, const ArchConfig& config) {
  return RunContext()
      .execute(circuit, {}, config, DesignKind::IdealMono, /*seed=*/0)
      .fidelity;
}

}  // namespace dqcsim::runtime
