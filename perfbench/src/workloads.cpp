#include "workloads.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "gen/benchmarks.hpp"
#include "scenario/scenario.hpp"
#include "util.hpp"

namespace perfbench {

namespace {

using dqcsim::gen::BenchmarkId;
using dqcsim::net::Topology;
using dqcsim::runtime::ArchConfig;
using dqcsim::runtime::DesignKind;
using dqcsim::runtime::DesignPoint;

// Runs per driver call of the two topology workloads. chain_saturated
// trials take about 15 ms, fault_swapgo trials about one; these sizes keep
// a call short next to the run time, so a run makes several hundred calls
// and its tail percentile keeps ten calls beyond it on a slower host too.
constexpr int kChainRuns = 4;
constexpr int kFaultRuns = 32;

/// Times set-up library calls into a SetupTiming and records their spans.
struct SetupRecorder {
  SetupTiming& timing;
  Tracer* tracer;
  std::uint32_t trace;

  template <typename F>
  auto operator()(Layer layer, const char* name, double SetupTiming::*slot,
                  F&& f) {
    const ScopedSpan span(tracer, trace, 0, layer, name);
    const std::uint64_t t0 = now_ns();
    auto result = f();
    timing.*slot += static_cast<double>(now_ns() - t0);
    return result;
  }
};

ArchConfig base_config() {
  ArchConfig config;
  config.record_arrival_trace = false;
  return config;
}

Instance make_instance(SetupRecorder& rec, BenchmarkId id,
                       const Topology* topology, const std::string& suffix) {
  Instance inst;
  inst.name = dqcsim::gen::benchmark_name(id) + suffix;
  inst.circuit = rec(Layer::Gen, "gen.make_benchmark", &SetupTiming::gen_ns,
                     [&] { return dqcsim::gen::make_benchmark(id); });
  const dqcsim::partition::PartitionResult part =
      rec(Layer::Partition, "partition.partition_circuit",
          &SetupTiming::partition_ns, [&] {
            return topology == nullptr
                       ? dqcsim::runtime::partition_circuit(inst.circuit, 2)
                       : dqcsim::runtime::partition_circuit(inst.circuit,
                                                            *topology);
          });
  inst.assignment = part.assignment;
  inst.cut = static_cast<double>(part.cut);
  return inst;
}

Topology make_topology(SetupRecorder& rec, const char* name,
                       Topology (*builder)(int), int nodes) {
  return rec(Layer::Net, name, &SetupTiming::net_ns,
             [&] { return builder(nodes); });
}

/// Build and validate a scenario spec against its topology. Stationary
/// workloads build the empty (stationary-fabric) scenario.
dqcsim::scenario::Scenario make_scenario(SetupRecorder& rec,
                                         const Topology& topology,
                                         double mtbf, double duration) {
  return rec(Layer::Scenario, "scenario.build", &SetupTiming::scenario_ns,
             [&] {
               dqcsim::scenario::Scenario scn;
               scn.random_failures.mtbf = mtbf;
               scn.random_failures.duration = duration;
               scn.validate(topology);
               return scn;
             });
}

std::string cell_key(const std::string& prefix, DesignKind design) {
  return prefix + "/" + dqcsim::runtime::design_name(design);
}

void build_paper_grid(Workload& w, SetupRecorder& rec) {
  w.topologies.push_back(
      make_topology(rec, "net.topology.all_to_all", &Topology::all_to_all, 2));
  make_scenario(rec, w.topologies[0], 0.0, 0.0);
  const ArchConfig config = base_config();
  for (const BenchmarkId id : dqcsim::gen::benchmarks_32q()) {
    w.instances.push_back(make_instance(rec, id, nullptr, ""));
    Call call;
    call.instance = w.instances.size() - 1;
    call.matrix = true;
    call.runs = 50;
    for (const DesignKind d : dqcsim::runtime::all_designs()) {
      call.points.push_back(DesignPoint{d, config});
      call.cells.push_back(cell_key(w.instances.back().name, d));
    }
    w.calls.push_back(std::move(call));
  }
  w.check_call = w.calls.size() - 1;  // QFT-32
  w.probe_config = config;
  w.paper_order = true;
  w.tail_pct = 95.0;
}

void build_config_sweep(Workload& w, SetupRecorder& rec) {
  w.topologies.push_back(
      make_topology(rec, "net.topology.all_to_all", &Topology::all_to_all, 2));
  make_scenario(rec, w.topologies[0], 0.0, 0.0);
  w.instances.push_back(
      make_instance(rec, BenchmarkId::QAOA_R8_32, nullptr, ""));
  for (int qubits = 2; qubits <= 20; qubits += 2) {
    for (const double p : {0.1, 0.2, 0.4, 0.8}) {
      ArchConfig config = base_config();
      config.comm_per_node = qubits;
      config.buffer_per_node = qubits;
      config.p_succ = p;
      for (const DesignKind d :
           {DesignKind::SyncBuf, DesignKind::AsyncBuf, DesignKind::AdaptBuf,
            DesignKind::InitBuf}) {
        Call call;
        call.runs = 8;
        call.points.push_back(DesignPoint{d, config});
        char prefix[48];
        std::snprintf(prefix, sizeof prefix, "c=%d/p=%.1f", qubits, p);
        call.cells.push_back(cell_key(prefix, d));
        if (qubits == 10 && p == 0.4 && d == DesignKind::AsyncBuf) {
          w.check_call = w.calls.size();
          w.probe_config = config;
        }
        w.calls.push_back(std::move(call));
      }
    }
  }
  w.tail_pct = 99.0;
}

ArchConfig topology_config(const Topology& topology) {
  ArchConfig config = base_config();
  config.num_nodes = topology.num_nodes();
  config.comm_per_node = 16;
  config.buffer_per_node = 16;
  config.set_topology(topology);
  return config;
}

void build_chain_saturated(Workload& w, SetupRecorder& rec) {
  w.topologies.push_back(
      make_topology(rec, "net.topology.chain", &Topology::chain, 8));
  make_scenario(rec, w.topologies[0], 0.0, 0.0);
  w.instances.push_back(
      make_instance(rec, BenchmarkId::QFT_32, &w.topologies[0], "@chain8"));
  const ArchConfig config = topology_config(w.topologies[0]);
  Call call;
  call.runs = kChainRuns;
  call.points.push_back(DesignPoint{DesignKind::AsyncBuf, config});
  call.cells.push_back(cell_key(w.instances[0].name, DesignKind::AsyncBuf));
  w.calls.push_back(std::move(call));
  w.probe_config = config;
  w.tail_pct = 90.0;
}

void build_fault_swapgo(Workload& w, SetupRecorder& rec) {
  w.topologies.push_back(
      make_topology(rec, "net.topology.chain", &Topology::chain, 8));
  w.topologies.push_back(
      make_topology(rec, "net.topology.ring", &Topology::ring, 8));
  for (std::size_t t = 0; t < w.topologies.size(); ++t) {
    const Topology& topology = w.topologies[t];
    std::string suffix = "@";
    suffix += topology.name();
    suffix += "8";
    w.instances.push_back(make_instance(rec, BenchmarkId::QAOA_R8_32,
                                        &topology, suffix));
    const dqcsim::scenario::Scenario scn =
        make_scenario(rec, topology, 400.0, 120.0);
    for (const bool salvage : {false, true}) {
      ArchConfig config = topology_config(topology);
      config.swap_as_you_go = true;
      config.salvage_pairs = salvage;
      config.set_scenario(scn);
      Call call;
      call.instance = w.instances.size() - 1;
      call.runs = kFaultRuns;
      call.points.push_back(DesignPoint{DesignKind::AsyncBuf, config});
      call.cells.push_back(
          cell_key(w.instances.back().name +
                       (salvage ? "/salvage=on" : "/salvage=off"),
                   DesignKind::AsyncBuf));
      w.calls.push_back(std::move(call));
    }
  }
  w.check_call = w.calls.size() - 1;  // ring, salvage on
  w.probe_config = w.calls[w.check_call].points[0].config;
  w.tail_pct = 95.0;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_grid", "config_sweep", "chain_saturated", "fault_swapgo"};
  return names;
}

Workload build_workload(const std::string& name, SetupTiming& timing,
                        Tracer* tracer, std::uint32_t trace) {
  Workload w;
  w.name = name;
  SetupRecorder rec{timing, tracer, trace};
  if (name == "paper_grid") {
    build_paper_grid(w, rec);
  } else if (name == "config_sweep") {
    build_config_sweep(w, rec);
  } else if (name == "chain_saturated") {
    build_chain_saturated(w, rec);
  } else if (name == "fault_swapgo") {
    build_fault_swapgo(w, rec);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

void compute_ideal_depths(Workload& workload) {
  const ArchConfig config = base_config();
  for (Instance& inst : workload.instances) {
    inst.ideal_depth = dqcsim::runtime::ideal_depth(inst.circuit, config);
  }
}

std::size_t trials_per_pass(const Workload& workload) {
  std::size_t trials = 0;
  for (const Call& call : workload.calls) {
    trials += call.points.size() * static_cast<std::size_t>(call.runs);
  }
  return trials;
}

std::size_t model_builds_per_pass(const Workload& workload) {
  std::size_t builds = 0;
  for (const Call& call : workload.calls) builds += call.points.size();
  return builds;
}

}  // namespace perfbench
