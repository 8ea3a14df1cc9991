/// \file fig7_comm_sweep.cpp
/// \brief Reproduces the paper's Fig. 7: QAOA-r8-32 depth as the number of
/// communication and buffer qubits grows (10/10, 15/15, 20/20), for the
/// four buffered designs. The paper's observation: init_buf approaches the
/// ideal depth at 20 communication qubits while fidelity barely moves.

#include <iostream>
#include <iterator>

#include "bench_util.hpp"

int main() {
  using namespace dqcsim;
  std::cout << "=== Fig. 7: QAOA-r8-32 vs communication/buffer qubits ===\n\n";

  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = bench::partition2(qc);

  TablePrinter table({"#comm=#buff", "design", "depth", "rel. ideal",
                      "fidelity"});
  CsvWriter csv(bench::csv_path("fig7_comm_sweep"),
                {"comm_qubits", "design", "depth_mean", "depth_rel_ideal",
                 "fidelity_mean"});

  const runtime::DesignKind designs[] = {
      runtime::DesignKind::SyncBuf, runtime::DesignKind::AsyncBuf,
      runtime::DesignKind::AdaptBuf, runtime::DesignKind::InitBuf};
  const int comm_counts[] = {10, 15, 20};

  // The whole comm x design grid goes through one run_design_matrix call:
  // every (config, design, seed) cell shares the same thread pool.
  std::vector<runtime::DesignPoint> points;
  for (const int comm : comm_counts) {
    runtime::ArchConfig config;
    config.comm_per_node = comm;
    config.buffer_per_node = comm;
    for (const auto design : designs) points.push_back({design, config});
  }
  bench::BenchReport report("fig7_comm_sweep");
  std::vector<runtime::AggregateResult> aggregates;
  bench::KernelResult& r = report.time_section(
      "fig7/comm_sweep_matrix",
      points.size() * static_cast<std::size_t>(bench::kRuns), [&] {
        aggregates = runtime::run_design_matrix(qc, part.assignment, points,
                                                bench::kRuns);
      });
  r.counters = bench::work_counters(aggregates);

  // Rows read (design, config) back from the points grid itself, so the
  // result pairing cannot drift from the order the matrix was built in.
  for (std::size_t i = 0; i < points.size(); ++i) {
    const runtime::DesignPoint& point = points[i];
    const auto& agg = aggregates[i];
    const int comm = point.config.comm_per_node;
    const double ideal = runtime::ideal_depth(qc, point.config);
    table.add_row({TablePrinter::fmt(comm), design_name(point.design),
                   TablePrinter::fmt(agg.depth.mean(), 1),
                   TablePrinter::fmt(agg.depth.mean() / ideal, 2),
                   TablePrinter::fmt(agg.fidelity.mean(), 4)});
    csv.add_row({std::to_string(comm), design_name(point.design),
                 TablePrinter::fmt(agg.depth.mean(), 3),
                 TablePrinter::fmt(agg.depth.mean() / ideal, 4),
                 TablePrinter::fmt(agg.fidelity.mean(), 5)});
    if ((i + 1) % std::size(designs) == 0) {
      table.add_row({"", "", "", "", ""});
    }
  }
  table.print(std::cout);
  report.write();

  std::cout << "\nPaper shape (Fig. 7): depth falls as communication/buffer "
               "qubits increase; init_buf is consistently best and "
               "approaches ideal at 20; fidelity is almost unchanged across "
               "the sweep (pairs are consumed immediately).\n";
  return 0;
}
