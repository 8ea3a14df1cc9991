/// \file bench_util.hpp
/// \brief Shared helpers for the reproduction harness: configuration echo
/// (paper Table II), standard run loops, and CSV output locations.

#pragma once

#include <cstdlib>
#include <iostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_report.hpp"
#include "dqcsim.hpp"

namespace dqcsim::bench {

/// Number of stochastic runs per configuration (the paper averages 50).
inline constexpr int kRuns = 50;

/// kRuns unless the DQCSIM_BENCH_RUNS environment variable overrides it
/// (CI smoke jobs run the sweep shape at a reduced trial count).
inline int runs_from_env() {
  if (const char* env = std::getenv("DQCSIM_BENCH_RUNS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return kRuns;
}

/// The work counters every engine sweep cell reports, as means per trial
/// over `aggregates` (equal run counts each): DES events, generation
/// attempts and successes, and generation windows walked one at a time.
inline std::vector<std::pair<std::string, double>> work_counters(
    std::span<const runtime::AggregateResult> aggregates) {
  using runtime::AggregateResult;
  static constexpr std::pair<const char*, Accumulator AggregateResult::*>
      kCounters[] = {{"events_mean", &AggregateResult::events},
                     {"attempts_mean", &AggregateResult::epr_attempts},
                     {"successes_mean", &AggregateResult::epr_successes},
                     {"windows_walked_mean",
                      &AggregateResult::gen_windows_walked}};
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, member] : kCounters) {
    double sum = 0.0;
    for (const auto& agg : aggregates) sum += (agg.*member).mean();
    out.emplace_back(name, aggregates.empty()
                               ? 0.0
                               : sum / static_cast<double>(aggregates.size()));
  }
  return out;
}

/// Append the work counters of one cell to `counters`.
inline void add_work_counters(
    std::vector<std::pair<std::string, double>>& counters,
    const runtime::AggregateResult& agg) {
  for (auto& c : work_counters({&agg, 1})) counters.push_back(std::move(c));
}

/// Pin one design cell of a paper figure: a report entry named
/// `<section>/<design>` carrying the cell's depth, fidelity and wasted-pair
/// means. It has no timing of its own (ns_per_op 0); the section's entry
/// times the sweep.
inline void add_design_cell(BenchReport& report, const std::string& section,
                            runtime::DesignKind design,
                            const runtime::AggregateResult& agg) {
  KernelResult r;
  r.name = section + "/" + runtime::design_name(design);
  r.counters = {{"depth_mean", agg.depth.mean()},
                {"fidelity_mean", agg.fidelity.mean()},
                {"epr_wasted_mean", agg.epr_wasted.mean()}};
  report.add(std::move(r));
}

/// Evaluate `designs` on one configuration through the batched matrix API:
/// all design x seed cells share one thread pool, so the whole sweep runs
/// at full machine width. Element i corresponds to designs[i].
inline std::vector<runtime::AggregateResult> run_designs(
    const Circuit& qc, const std::vector<int>& assignment,
    const runtime::ArchConfig& config,
    const std::vector<runtime::DesignKind>& designs, int runs = kRuns) {
  std::vector<runtime::DesignPoint> points;
  points.reserve(designs.size());
  for (const auto design : designs) points.push_back({design, config});
  return runtime::run_design_matrix(qc, assignment, points, runs);
}

/// run_designs with the wall time recorded in `report` under `section`
/// (items = design x seed cells), so every figure leaves a BENCH_*.json
/// perf trajectory alongside its CSV.
inline std::vector<runtime::AggregateResult> run_designs_timed(
    BenchReport& report, const std::string& section, const Circuit& qc,
    const std::vector<int>& assignment, const runtime::ArchConfig& config,
    const std::vector<runtime::DesignKind>& designs, int runs = kRuns) {
  std::vector<runtime::AggregateResult> out;
  KernelResult& r = report.time_section(
      section, static_cast<std::size_t>(runs) * designs.size(),
      [&] { out = run_designs(qc, assignment, config, designs, runs); });
  r.counters = work_counters(out);
  return out;
}

/// Print the Table II operation properties actually in effect, so every
/// bench is self-describing.
inline void print_config(const runtime::ArchConfig& config,
                         std::ostream& os = std::cout) {
  TablePrinter t({"operation", "latency [t_CNOT]", "fidelity"});
  t.add_row({"1Q gate", TablePrinter::fmt(config.lat.one_qubit, 1),
             TablePrinter::fmt(config.fid.one_qubit, 4)});
  t.add_row({"local CNOT", TablePrinter::fmt(config.lat.local_cnot, 1),
             TablePrinter::fmt(config.fid.local_cnot, 4)});
  t.add_row({"measurement", TablePrinter::fmt(config.lat.measurement, 1),
             TablePrinter::fmt(config.fid.measurement, 4)});
  t.add_row({"EPR generation cycle", TablePrinter::fmt(config.lat.epr_cycle, 1),
             TablePrinter::fmt(config.fid.epr_f0, 4)});
  os << "System configuration (paper Table II; p_succ = "
     << TablePrinter::fmt(config.p_succ, 2)
     << ", kappa = " << TablePrinter::fmt(config.kappa, 4) << " per unit, "
     << config.comm_per_node << " comm + " << config.buffer_per_node
     << " buffer qubits/node):\n";
  t.print(os);
  os << '\n';
}

/// Standard partition of a benchmark circuit onto 2 nodes.
inline partition::PartitionResult partition2(const Circuit& qc) {
  return runtime::partition_circuit(qc, 2);
}

/// Where benches drop machine-readable copies of their tables.
inline std::string csv_path(const std::string& name) {
  return name + ".csv";
}

}  // namespace dqcsim::bench
