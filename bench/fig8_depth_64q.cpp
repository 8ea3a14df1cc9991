/// \file fig8_depth_64q.cpp
/// \brief Reproduces the paper's Fig. 8: circuit depth on the larger 2-node
/// 64-data-qubit system (32 data + 20 comm + 20 buffer qubits per node) for
/// QAOA-r4-64 and QAOA-r8-64, averaged over 50 runs.

#include <iostream>

#include "bench_util.hpp"

int main() {
  using namespace dqcsim;
  std::cout << "=== Fig. 8: circuit depth, 64-qubit benchmarks ===\n\n";

  runtime::ArchConfig config;
  config.comm_per_node = 20;
  config.buffer_per_node = 20;
  bench::print_config(config);

  TablePrinter table({"benchmark", "design", "depth", "rel. ideal", "ci95"});
  CsvWriter csv(bench::csv_path("fig8_depth_64q"),
                {"benchmark", "design", "depth_mean", "depth_rel_ideal",
                 "depth_ci95"});
  bench::BenchReport report("fig8_depth_64q");

  for (const auto id :
       {gen::BenchmarkId::QAOA_R4_64, gen::BenchmarkId::QAOA_R8_64}) {
    const Circuit qc = gen::make_benchmark(id);
    const auto part = bench::partition2(qc);
    const double ideal = runtime::ideal_depth(qc, config);
    const auto aggregates = bench::run_designs_timed(
        report, "fig8/" + benchmark_name(id), qc, part.assignment, config,
        runtime::distributed_designs());

    std::size_t next = 0;
    for (const auto design : runtime::all_designs()) {
      double depth = ideal, ci = 0.0;
      if (design != runtime::DesignKind::IdealMono) {
        const auto& agg = aggregates[next++];
        bench::add_design_cell(report, "fig8/" + benchmark_name(id), design,
                               agg);
        depth = agg.depth.mean();
        ci = agg.depth.ci95_half_width();
      }
      table.add_row({benchmark_name(id), design_name(design),
                     TablePrinter::fmt(depth, 1),
                     TablePrinter::fmt(depth / ideal, 2),
                     TablePrinter::fmt(ci, 2)});
      csv.add_row({benchmark_name(id), design_name(design),
                   TablePrinter::fmt(depth, 3),
                   TablePrinter::fmt(depth / ideal, 4),
                   TablePrinter::fmt(ci, 3)});
    }
  }
  table.print(std::cout);
  report.write();

  std::cout << "\nPaper shape (Fig. 8): the design ordering from Fig. 5 "
               "persists at 64 qubits; init_buf reduces depth vs sync_buf "
               "by roughly 10-15%.\n";
  return 0;
}
