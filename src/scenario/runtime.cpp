#include "scenario/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace dqcsim::scenario {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Stream tags keep the per-component seed derivations disjoint.
constexpr std::uint64_t kTagWalk = 0x57414C4BULL;  // "WALK"
constexpr std::uint64_t kTagFail = 0x4641494CULL;  // "FAIL"

/// Independent stream seed for component `index` of kind `tag`.
std::uint64_t derive_seed(std::uint64_t trial_seed, std::uint64_t salt,
                          std::uint64_t tag, std::uint64_t index) noexcept {
  return mix64(mix64(trial_seed ^ salt ^ tag) + index);
}

/// Exp(mean) variate through the blessed Rng wrapper — the raw
/// -mean * log(1 - u) inversion lives in common/rng so the engine
/// subsystems stay free of raw libm calls (no-raw-libm).
double exponential(Rng& rng, double mean) noexcept {
  return rng.exponential(mean);
}

}  // namespace

void ScenarioRuntime::begin_trial(const Scenario& scenario,
                                  const net::Topology& topo,
                                  std::uint64_t trial_seed) {
  scn_ = &scenario;
  topo_ = &topo;
  const std::size_t num_edges = topo.num_edges();
  const std::size_t num_nodes = static_cast<std::size_t>(topo.num_nodes());
  const std::uint64_t salt = scenario.salt;

  walks_.resize(scenario.drift.size());
  for (std::size_t i = 0; i < walks_.size(); ++i) {
    walks_[i].rng = Rng(derive_seed(trial_seed, salt, kTagWalk, i));
    walks_[i].levels.assign(1, 1.0);
  }

  edge_downs_.resize(num_edges);
  for (auto& intervals : edge_downs_) intervals.clear();
  node_downs_.resize(num_nodes);
  for (auto& intervals : node_downs_) intervals.clear();

  for (const LinkOutage& outage : scenario.link_outages) {
    const std::size_t e = topo.edge_index(outage.node_a, outage.node_b);
    edge_downs_[e].emplace_back(outage.start, outage.start + outage.duration);
  }
  for (const NodeOutage& outage : scenario.node_outages) {
    node_downs_[static_cast<std::size_t>(outage.node)].emplace_back(
        outage.start, outage.start + outage.duration);
  }

  // Potential-flip times of the deterministic outage set. Overlapping
  // intervals can make some of these spurious (no actual state change);
  // the engine re-derives the full mask at each boundary, so spurious
  // entries cost one no-op check.
  det_boundaries_.clear();
  for (auto& intervals : edge_downs_) {
    std::sort(intervals.begin(), intervals.end());
    for (const auto& [start, end] : intervals) {
      det_boundaries_.push_back(start);
      det_boundaries_.push_back(end);
    }
  }
  for (auto& intervals : node_downs_) {
    std::sort(intervals.begin(), intervals.end());
    for (const auto& [start, end] : intervals) {
      det_boundaries_.push_back(start);
      det_boundaries_.push_back(end);
    }
  }
  std::sort(det_boundaries_.begin(), det_boundaries_.end());
  det_boundaries_.erase(
      std::unique(det_boundaries_.begin(), det_boundaries_.end()),
      det_boundaries_.end());

  if (scenario.random_failures.mtbf > 0.0) {
    failures_.resize(num_edges);
    for (std::size_t e = 0; e < num_edges; ++e) {
      failures_[e].rng = Rng(derive_seed(trial_seed, salt, kTagFail, e));
      failures_[e].intervals.clear();
      failures_[e].sampled_until = 0.0;
      failures_[e].exhausted = false;
    }
  } else {
    failures_.clear();
  }
}

double ScenarioRuntime::track_scale(std::size_t i, double time) {
  // Memoized grid levels allow random access in time (consumption-time
  // fidelity queries look back to a pair's deposit instant). The walk
  // freezes past the scenario horizon, bounding memoization.
  const DriftTrack& track = scn_->drift[i];
  WalkState& walk = walks_[i];
  const double capped = std::min(time, scn_->horizon);
  const std::size_t step = static_cast<std::size_t>(
      std::max(0.0, std::floor(capped / track.walk_interval)));
  while (walk.levels.size() <= step) {
    const double factor =
        1.0 + walk.rng.uniform(-track.walk_step, track.walk_step);
    walk.levels.push_back(std::clamp(walk.levels.back() * factor,
                                     track.walk_min, track.walk_max));
  }
  return walk.levels[step];
}

double ScenarioRuntime::scale(DriftField field, double t) {
  double s = 1.0;
  for (std::size_t i = 0; i < scn_->drift.size(); ++i) {
    if (scn_->drift[i].field == field) s *= track_scale(i, t);
  }
  return s;
}

double ScenarioRuntime::effective_p_succ(double base, double t) {
  return std::clamp(base * scale(DriftField::PSucc, t), 1e-12, 1.0);
}

double ScenarioRuntime::effective_f0(double base, double t) {
  return std::clamp(base * scale(DriftField::F0, t), 0.25, 1.0);
}

bool ScenarioRuntime::in_intervals(
    const std::vector<std::pair<double, double>>& intervals, double t) const {
  // Sorted by start; deterministic intervals may overlap, so scan until the
  // starts pass t (lists are short: one entry per configured event).
  for (const auto& [start, end] : intervals) {
    if (start > t) break;
    if (t < end) return true;
  }
  return false;
}

bool ScenarioRuntime::in_disjoint_intervals(
    const std::vector<std::pair<double, double>>& intervals, double t) {
  // Sorted AND non-overlapping (the stochastic failure process samples the
  // next start past the previous repair), so only the last interval starting
  // at or before t can cover it. These lists grow with trial length — a
  // long trial under frequent failures accumulates thousands of intervals
  // per edge, and edge_up runs on every generation attempt window — so the
  // lookup must stay O(log n), not a front-to-back scan.
  const auto it = std::upper_bound(intervals.begin(), intervals.end(),
                                   std::make_pair(t, kInf));
  return it != intervals.begin() && t < (it - 1)->second;
}

bool ScenarioRuntime::node_up(int node, double t) const {
  return !in_intervals(node_downs_[static_cast<std::size_t>(node)], t);
}

bool ScenarioRuntime::edge_up(std::size_t edge, double t) {
  if (in_intervals(edge_downs_[edge], t)) return false;
  if (!failures_.empty()) {
    EdgeFailures& fail = failures_[edge];
    if (fail.sampled_until <= t) extend_edge(fail, t);
    if (in_disjoint_intervals(fail.intervals, t)) return false;
  }
  const net::TopologyEdge& e = topo_->edge(edge);
  return node_up(e.a, t) && node_up(e.b, t);
}

void ScenarioRuntime::extend_edge(EdgeFailures& fail, double t) {
  // Sample until the *first failure starting after t* is materialized (or
  // the process is exhausted): with it sampled, every boundary of this edge
  // in (t, that start] is known, so next_boundary can never return a time
  // that an unsampled failure would preempt, and the edge's up state is
  // exact for any time up to that start.
  const double mtbf = scn_->random_failures.mtbf;
  const double repair = scn_->random_failures.duration;
  while (!fail.exhausted &&
         (fail.intervals.empty() || fail.intervals.back().first <= t)) {
    const double start = fail.sampled_until + exponential(fail.rng, mtbf);
    if (start > scn_->horizon) {
      fail.exhausted = true;
      break;
    }
    fail.intervals.emplace_back(start, start + repair);
    fail.sampled_until = start + repair;
  }
}

void ScenarioRuntime::extend_failures(double t) {
  for (EdgeFailures& fail : failures_) extend_edge(fail, t);
}

std::optional<double> ScenarioRuntime::next_boundary(double t) {
  double best = kInf;
  const auto det =
      std::upper_bound(det_boundaries_.begin(), det_boundaries_.end(), t);
  if (det != det_boundaries_.end()) best = *det;

  if (!failures_.empty()) {
    extend_failures(t);
    for (const EdgeFailures& fail : failures_) {
      // Candidate boundaries: the end of the interval covering t (if any),
      // and the start of the first interval after t.
      const auto it =
          std::upper_bound(fail.intervals.begin(), fail.intervals.end(),
                           std::make_pair(t, kInf));
      if (it != fail.intervals.begin()) {
        const double end = (it - 1)->second;
        if (end > t) best = std::min(best, end);
      }
      if (it != fail.intervals.end()) best = std::min(best, it->first);
    }
  }

  if (best == kInf) return std::nullopt;
  return best;
}

}  // namespace dqcsim::scenario
