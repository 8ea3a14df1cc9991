/// \file replay_samples.cpp
/// \brief Per-seed samples for a replay-format equivalence check.
///
/// Prints one CSV row per (cell, seed): depth, fidelity and avg_pair_age of
/// QAOA-r8-32 for every distributed design x {all-to-all(8), chain(8),
/// ring(8), two nodes at p_succ 0.8} x {stationary, drift + outages}, 16
/// comm + 16 buffer qubits per node. The two-node shape is the paper's
/// setting at a saturating success rate, where deposits and gate
/// completions share instants most often. Built from two checkouts (before
/// and after a change to the random draw stream), the two outputs feed
/// tools/ks_equivalence.py, which tests every cell and metric for
/// distributional equivalence. The program uses only long-standing public
/// API so an older checkout compiles it as is:
///
///     ./replay_samples [seeds=1000] [threads=3] > samples.csv

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "dqcsim.hpp"

namespace {

using namespace dqcsim;

struct Cell {
  std::string name;
  runtime::DesignKind design;
  runtime::ArchConfig config;
  std::vector<int> assignment;
};

struct Sample {
  double depth = 0.0;
  double fidelity = 0.0;
  double avg_pair_age = 0.0;
};

/// Fabric-wide p_succ / f0 random walks plus random link failures.
scenario::Scenario drift_and_outages() {
  scenario::Scenario scn;
  scenario::DriftTrack p;
  p.field = scenario::DriftField::PSucc;
  p.walk_interval = 50.0;
  p.walk_step = 0.2;
  p.walk_min = 0.5;
  p.walk_max = 1.5;
  scenario::DriftTrack f = p;
  f.field = scenario::DriftField::F0;
  f.walk_step = 0.005;
  f.walk_min = 0.97;
  f.walk_max = 1.0;
  scn.drift = {p, f};
  scn.random_failures.mtbf = 1500.0;
  scn.random_failures.duration = 120.0;
  return scn;
}

}  // namespace

int main(int argc, char** argv) {
  const int seeds = argc > 1 ? std::atoi(argv[1]) : 1000;
  const int threads = argc > 2 ? std::atoi(argv[2]) : 3;
  if (seeds < 1 || threads < 1 || threads > 64) {
    std::fprintf(stderr, "usage: replay_samples [seeds>=1] [threads 1..64]\n");
    return 2;
  }

  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  std::vector<Cell> cells;
  for (const std::string& shape :
       {std::string("all_to_all"), std::string("chain"), std::string("ring"),
        std::string("pair_p0.8")}) {
    const bool pair = shape == "pair_p0.8";
    const net::Topology topo = shape == "chain"  ? net::Topology::chain(8)
                               : shape == "ring" ? net::Topology::ring(8)
                               : pair            ? net::Topology::all_to_all(2)
                                                 : net::Topology::all_to_all(8);
    const auto part = runtime::partition_circuit(qc, topo);
    for (const bool faulty : {false, true}) {
      for (const runtime::DesignKind design : runtime::distributed_designs()) {
        Cell cell;
        cell.name = shape + (faulty ? "/drift+outages/" : "/stationary/") +
                    runtime::design_name(design);
        cell.design = design;
        cell.config.num_nodes = topo.num_nodes();
        if (pair) cell.config.p_succ = 0.8;
        cell.config.comm_per_node = 16;
        cell.config.buffer_per_node = 16;
        cell.config.record_arrival_trace = false;
        cell.config.set_topology(topo);
        if (faulty) cell.config.set_scenario(drift_and_outages());
        cell.assignment = part.assignment;
        cells.push_back(std::move(cell));
      }
    }
  }

  const noise::TeleportFidelityModel model(noise::TeleportNoiseParams{});
  const std::size_t per_cell = static_cast<std::size_t>(seeds);
  std::vector<Sample> samples(cells.size() * per_cell);
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      runtime::RunContext ctx;
      for (std::size_t i = static_cast<std::size_t>(w); i < samples.size();
           i += static_cast<std::size_t>(threads)) {
        const Cell& cell = cells[i / per_cell];
        const std::uint64_t seed = 1 + i % per_cell;
        const runtime::RunResult r = ctx.execute(
            qc, cell.assignment, cell.config, cell.design, seed, &model);
        samples[i] = Sample{r.depth, r.fidelity, r.avg_pair_age};
      }
    });
  }
  for (std::thread& t : workers) t.join();

  std::printf("cell,seed,depth,fidelity,avg_pair_age\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::printf("%s,%zu,%.17g,%.17g,%.17g\n", cells[i / per_cell].name.c_str(),
                1 + i % per_cell, s.depth, s.fidelity, s.avg_pair_age);
  }
  return 0;
}
