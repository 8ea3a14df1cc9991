/// Golden corpus of engine trials: a seeded, generated set of
/// configurations across designs, topologies, fault scenarios and the
/// delivery knobs, each run once through one shared RunContext (so the
/// setup and route caches see every change of configuration). Every
/// RunResult field must reproduce the committed table exactly: doubles as
/// hex-floats, counters as integers.
///
/// The table is tests/data/engine_corpus.txt, recorded for one replay
/// format (dqcsim::kReplayFormat). An intended behaviour change re-records
/// it in place with the disabled recorder,
///
///   test_engine_corpus --gtest_also_run_disabled_tests \
///       --gtest_filter='*RecordTable'
///
/// and says which columns moved (`git diff --word-diff` shows them).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gen/qaoa.hpp"
#include "gen/qft.hpp"
#include "net/topology.hpp"
#include "noise/teleport_fidelity.hpp"
#include "runtime/arch_config.hpp"
#include "runtime/design.hpp"
#include "runtime/engine.hpp"
#include "runtime/experiment.hpp"
#include "runtime/metrics.hpp"
#include "scenario/scenario.hpp"

namespace dqcsim {
namespace {

using runtime::ArchConfig;
using runtime::DesignKind;
using runtime::RunResult;

constexpr std::size_t kCases = 1000;
constexpr std::uint64_t kCorpusSeed = 0xC0A9005;
constexpr const char* kTablePath = DQCSIM_TEST_DATA_DIR "/engine_corpus.txt";

/// Every RunResult field, in table column order.
std::vector<std::pair<const char*, std::string>> fields(const RunResult& r) {
  static_assert(sizeof(RunResult) == 30 * sizeof(double),
                "a new RunResult field must be added to the corpus table");
  const auto hex = [](double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return std::string(buf);
  };
  const auto num = [](std::size_t v) { return std::to_string(v); };
  return {{"depth", hex(r.depth)},
          {"fidelity", hex(r.fidelity)},
          {"fidelity_local", hex(r.fidelity_local)},
          {"fidelity_remote", hex(r.fidelity_remote)},
          {"fidelity_idling", hex(r.fidelity_idling)},
          {"remote_gates", num(r.remote_gates)},
          {"epr_attempts", num(r.epr_attempts)},
          {"epr_successes", num(r.epr_successes)},
          {"epr_consumed", num(r.epr_consumed)},
          {"epr_wasted", num(r.epr_wasted)},
          {"epr_expired", num(r.epr_expired)},
          {"avg_pair_age", hex(r.avg_pair_age)},
          {"avg_remote_wait", hex(r.avg_remote_wait)},
          {"entanglement_swaps", num(r.entanglement_swaps)},
          {"avg_route_hops", hex(r.avg_route_hops)},
          {"edges_shared", num(r.edges_shared)},
          {"max_edge_load", num(r.max_edge_load)},
          {"reroutes", num(r.reroutes)},
          {"outage_events", num(r.outage_events)},
          {"outage_downtime", hex(r.outage_downtime)},
          {"pairs_salvaged", num(r.pairs_salvaged)},
          {"pairs_discarded", num(r.pairs_discarded)},
          {"truncated", num(r.truncated ? 1 : 0)},
          {"segments_asap", num(r.segments_asap)},
          {"segments_alap", num(r.segments_alap)},
          {"segments_original", num(r.segments_original)},
          {"purification_rounds", num(r.purification_rounds)},
          {"purification_failures", num(r.purification_failures)},
          {"events", num(r.events)},
          {"gen_windows_walked", num(r.gen_windows_walked)}};
}

std::string header_line() {
  std::string line = "case";
  for (const auto& [name, value] : fields(RunResult{})) {
    line += ' ';
    line += name;
  }
  return line;
}

std::string row_line(std::size_t index, const RunResult& r) {
  std::string line = std::to_string(index);
  for (const auto& [name, value] : fields(r)) {
    line += ' ';
    line += value;
  }
  return line;
}

/// One generated trial.
struct Case {
  const Circuit* circuit = nullptr;
  std::vector<int> assignment;
  ArchConfig config;
  DesignKind design = DesignKind::AsyncBuf;
  std::uint64_t seed = 0;
  std::string label;  ///< human-readable summary for failure messages
};

enum class TopoKind { None, Chain, Ring, Star, Grid };
enum class ScenKind { None, Drift, Failures, NodeOutage, All };

/// Draws the corpus from one seeded stream of small workloads.
class CorpusGenerator {
 public:
  CorpusGenerator() : rng_(kCorpusSeed) {
    circuits_.push_back(gen::make_qft(8));
    Rng graph_rng(7);
    circuits_.push_back(gen::make_qaoa_regular(12, 4, graph_rng));
    circuit_names_ = {"QFT-8", "QAOA-r4-12"};
  }

  Case next(std::size_t index) {
    Case c;
    const std::size_t ci = pick(circuits_.size());
    c.circuit = &circuits_[ci];
    std::ostringstream label;
    label << "#" << index << " " << circuit_names_[ci];

    static constexpr DesignKind kDesigns[] = {
        DesignKind::Original, DesignKind::SyncBuf,  DesignKind::AsyncBuf,
        DesignKind::AdaptBuf, DesignKind::InitBuf,  DesignKind::IdealMono};
    c.design = kDesigns[pick(std::size(kDesigns))];
    label << " " << runtime::design_name(c.design);

    ArchConfig& cfg = c.config;
    const auto topo = static_cast<TopoKind>(pick(5));
    int links_per_node = 1;
    switch (topo) {
      case TopoKind::None:
        cfg.num_nodes = 2 + static_cast<int>(pick(3));
        links_per_node = cfg.num_nodes - 1;
        label << " all-to-all(" << cfg.num_nodes << ")";
        break;
      case TopoKind::Chain:
        cfg.num_nodes = 3 + static_cast<int>(pick(3));
        cfg.set_topology(net::Topology::chain(cfg.num_nodes));
        label << " chain(" << cfg.num_nodes << ")";
        break;
      case TopoKind::Ring:
        cfg.num_nodes = 3 + static_cast<int>(pick(3));
        cfg.set_topology(net::Topology::ring(cfg.num_nodes));
        label << " ring(" << cfg.num_nodes << ")";
        break;
      case TopoKind::Star:
        cfg.num_nodes = 4 + static_cast<int>(pick(2));
        cfg.set_topology(net::Topology::star(cfg.num_nodes));
        label << " star(" << cfg.num_nodes << ")";
        break;
      case TopoKind::Grid: {
        const int cols = 2 + static_cast<int>(pick(2));
        cfg.num_nodes = 2 * cols;
        cfg.set_topology(net::Topology::grid(2, cols));
        label << " grid(2x" << cols << ")";
        break;
      }
    }
    if (cfg.topology) links_per_node = cfg.topology->max_degree();

    cfg.comm_per_node = links_per_node + static_cast<int>(pick(10));
    cfg.buffer_per_node = 1 + static_cast<int>(pick(12));
    static constexpr double kPSucc[] = {0.1, 0.3, 0.5, 0.8, 1.0};
    cfg.p_succ = kPSucc[pick(std::size(kPSucc))];
    static constexpr int kSubgroups[] = {1, 2, 10};
    cfg.async_subgroups = kSubgroups[pick(std::size(kSubgroups))];
    cfg.consume_freshest = coin(0.5);
    cfg.fuse_local_gates = coin(0.5);
    if (coin(0.25)) cfg.remote_impl = runtime::RemoteImpl::StateTeleport;
    cfg.purify_on_consume = coin(0.2);
    cfg.salvage_pairs = coin(0.3);
    if (cfg.topology) {
      cfg.swap_as_you_go = coin(0.4);
      cfg.share_edge_capacity = coin(0.3);
    }
    if (coin(0.3)) {
      static constexpr double kCutoffs[] = {15.0, 40.0, 150.0};
      cfg.buffer_cutoff = kCutoffs[pick(std::size(kCutoffs))];
    }
    // A cutoff shorter than the time a gate's pair quota takes to arrive
    // never lets the gate run, so cutoff cases always carry a budget.
    if (coin(0.3) || std::isfinite(cfg.buffer_cutoff)) {
      static constexpr double kBudgets[] = {150.0, 600.0, 3000.0};
      cfg.max_trial_sim_time = kBudgets[pick(std::size(kBudgets))];
    }
    // Every buffered pair source must hold a whole pair quota; the engine
    // rejects configurations where one cannot (tested in test_runtime).
    const int quota = cfg.pairs_per_remote_gate();
    if (quota > 1) {
      cfg.buffer_per_node =
          std::max(cfg.buffer_per_node, quota * links_per_node);
      cfg.share_edge_capacity = false;
      if (!runtime::design_uses_buffer(c.design)) cfg.swap_as_you_go = false;
    }

    if (cfg.topology && coin(0.5)) {
      add_scenario(cfg, static_cast<ScenKind>(1 + pick(4)), label);
    }

    label << " comm=" << cfg.comm_per_node << " buf=" << cfg.buffer_per_node
          << " p=" << cfg.p_succ << " quota=" << quota;
    if (cfg.swap_as_you_go) label << " swapgo";
    if (cfg.share_edge_capacity) label << " shared";
    if (cfg.salvage_pairs) label << " salvage";
    if (cfg.purify_on_consume) label << " purify";
    if (!cfg.consume_freshest) label << " oldest";
    if (std::isfinite(cfg.buffer_cutoff)) {
      label << " cutoff=" << cfg.buffer_cutoff;
    }
    if (std::isfinite(cfg.max_trial_sim_time)) {
      label << " budget=" << cfg.max_trial_sim_time;
    }

    c.assignment = assignment_for(ci, topo, cfg);
    c.seed = 1000 + rng_.uniform_int(1u << 20);
    c.label = label.str();
    return c;
  }

 private:
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.uniform_int(n));
  }
  bool coin(double p) { return rng_.uniform() < p; }

  void add_scenario(ArchConfig& cfg, ScenKind kind, std::ostringstream& label) {
    scenario::Scenario scn;
    const bool all = kind == ScenKind::All;
    if (all || kind == ScenKind::Drift) {
      scenario::DriftTrack p;
      p.field = scenario::DriftField::PSucc;
      p.walk_interval = 20.0 + 20.0 * static_cast<double>(pick(3));
      p.walk_step = 0.2;
      scn.drift.push_back(p);
      scenario::DriftTrack f;
      f.field = scenario::DriftField::F0;
      f.walk_interval = 30.0;
      f.walk_step = 0.01;
      f.walk_min = 0.97;
      f.walk_max = 1.0;
      scn.drift.push_back(f);
      label << " drift";
    }
    if (all || kind == ScenKind::Failures) {
      static constexpr double kMtbf[] = {150.0, 400.0, 1000.0};
      scn.random_failures.mtbf = kMtbf[pick(std::size(kMtbf))];
      scn.random_failures.duration = coin(0.5) ? 20.0 : 60.0;
      label << " failures(mtbf=" << scn.random_failures.mtbf << ")";
    }
    if (all || kind == ScenKind::NodeOutage) {
      scenario::NodeOutage out;
      out.node =
          static_cast<int>(pick(static_cast<std::size_t>(cfg.num_nodes)));
      out.start = 10.0 * static_cast<double>(1 + pick(20));
      out.duration = 20.0 + 20.0 * static_cast<double>(pick(3));
      scn.node_outages.push_back(out);
      label << " node-outage(" << out.node << ")";
    }
    cfg.set_scenario(std::move(scn));
  }

  /// Partitions are cached per (circuit, interconnect shape).
  std::vector<int> assignment_for(std::size_t ci, TopoKind topo,
                                  const ArchConfig& cfg) {
    const std::string key = std::to_string(ci) + "/" +
                            std::to_string(static_cast<int>(topo)) + "/" +
                            std::to_string(cfg.num_nodes);
    auto it = partitions_.find(key);
    if (it == partitions_.end()) {
      const Circuit& qc = circuits_[ci];
      std::vector<int> assignment =
          cfg.topology
              ? runtime::partition_circuit(qc, *cfg.topology).assignment
              : runtime::partition_circuit(qc, cfg.num_nodes).assignment;
      it = partitions_.emplace(key, std::move(assignment)).first;
    }
    return it->second;
  }

  Rng rng_;
  std::vector<Circuit> circuits_;
  std::vector<std::string> circuit_names_;
  std::map<std::string, std::vector<int>> partitions_;
};

/// Runs the whole corpus in order through one RunContext.
std::vector<std::string> run_corpus(std::vector<std::string>* labels) {
  CorpusGenerator gen;
  runtime::RunContext ctx;
  // Every case keeps the default fidelities, so one teleported-gate model
  // serves them all (building it per setup change dominates otherwise).
  const ArchConfig defaults;
  noise::TeleportNoiseParams tele;
  tele.local_2q_fidelity = defaults.fid.local_cnot;
  tele.local_1q_fidelity = defaults.fid.one_qubit;
  tele.readout_fidelity = defaults.fid.measurement;
  const noise::TeleportFidelityModel model(tele);
  std::vector<std::string> rows;
  for (std::size_t i = 0; i < kCases; ++i) {
    const Case c = gen.next(i);
    const RunResult r = ctx.execute(*c.circuit, c.assignment, c.config,
                                    c.design, c.seed, &model);
    rows.push_back(row_line(i, r));
    if (labels != nullptr) labels->push_back(c.label);
  }
  return rows;
}

std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  for (std::string tok; in >> tok;) out.push_back(tok);
  return out;
}

TEST(EngineCorpus, EveryTrialMatchesTheRecordedTable) {
  std::ifstream in(kTablePath);
  ASSERT_TRUE(in) << "missing " << kTablePath;
  std::string format_line, header;
  std::getline(in, format_line);
  std::getline(in, header);
  ASSERT_EQ(format_line, "replay_format " + std::to_string(kReplayFormat))
      << "the table was recorded for another draw stream; re-record it";
  ASSERT_EQ(header, header_line()) << "RunResult columns changed";
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) expected.push_back(line);
  ASSERT_EQ(expected.size(), kCases);

  std::vector<std::string> labels;
  const std::vector<std::string> rows = run_corpus(&labels);
  const std::vector<std::string> names = split(header);
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < kCases; ++i) {
    if (rows[i] == expected[i]) continue;
    ++mismatched;
    const std::vector<std::string> got = split(rows[i]);
    const std::vector<std::string> want = split(expected[i]);
    ASSERT_EQ(got.size(), want.size()) << labels[i];
    std::string diff;
    for (std::size_t k = 0; k < got.size(); ++k) {
      if (got[k] != want[k]) {
        diff += " " + names[k] + ": " + want[k] + " -> " + got[k];
      }
    }
    ADD_FAILURE() << labels[i] << ":" << diff;
  }
  EXPECT_EQ(mismatched, 0u);
}

TEST(EngineCorpus, CoversEveryKnobAndScenario) {
  CorpusGenerator gen;
  std::map<std::string, int> seen;
  for (std::size_t i = 0; i < kCases; ++i) {
    const Case c = gen.next(i);
    const ArchConfig& cfg = c.config;
    ++seen["design " + runtime::design_name(c.design)];
    ++seen[cfg.topology ? "topology" : "all-to-all"];
    if (cfg.scenario) {
      if (!cfg.scenario->drift.empty()) ++seen["drift"];
      if (cfg.scenario->random_failures.mtbf > 0.0) ++seen["failures"];
      if (!cfg.scenario->node_outages.empty()) ++seen["node outage"];
    }
    if (cfg.swap_as_you_go) ++seen["swap_as_you_go"];
    if (cfg.swap_as_you_go && cfg.scenario && cfg.salvage_pairs) {
      ++seen["swap_as_you_go salvage under faults"];
    }
    if (cfg.share_edge_capacity) ++seen["share_edge_capacity"];
    if (cfg.purify_on_consume) ++seen["purify_on_consume"];
    if (cfg.remote_impl == runtime::RemoteImpl::StateTeleport) {
      ++seen["StateTeleport"];
    }
    if (std::isfinite(cfg.buffer_cutoff)) ++seen["cutoff"];
    if (!cfg.consume_freshest) ++seen["oldest first"];
    if (std::isfinite(cfg.max_trial_sim_time)) ++seen["budget"];
  }
  EXPECT_EQ(seen.size(), 19u);
  for (const auto& [what, count] : seen) {
    EXPECT_GE(count, 5) << what;
  }
}

TEST(EngineCorpus, DISABLED_RecordTable) {
  std::ofstream out(kTablePath);
  ASSERT_TRUE(out) << kTablePath;
  out << "replay_format " << kReplayFormat << '\n' << header_line() << '\n';
  for (const std::string& row : run_corpus(nullptr)) out << row << '\n';
}

}  // namespace
}  // namespace dqcsim
