/// \file driver.hpp
/// \brief How the benchmark issues a workload's driver calls: untraced
/// through runtime::run_design / run_design_matrix, traced through the same
/// public steps those functions take (teleport-model build, pool fan-out of
/// RunContext::execute, in-order fold) with a span around each, and trial by
/// trial on a reused RunContext for per-trial timings and counters.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "check.hpp"
#include "noise/teleport_fidelity.hpp"
#include "obs/scope.hpp"
#include "runtime/metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// The teleport-gadget noise parameters of `config`, as the driver derives
/// them for its teleport-model builds.
dqcsim::noise::TeleportNoiseParams teleport_params(
    const dqcsim::runtime::ArchConfig& config);

/// One untraced driver call with ArchConfig::observe left null.
std::vector<dqcsim::runtime::AggregateResult> issue_call(
    const Workload& w, const Call& call, std::uint64_t base_seed,
    int threads);

/// Observability read-outs of traced calls.
struct TracedTotals {
  std::array<double, dqcsim::obs::kPhaseCount> phase_ns{};  ///< all workers
  std::uint64_t setup_cache_hits = 0;
  std::uint64_t setup_cache_misses = 0;
  std::size_t calls = 0;
};

/// The call issued step by step with spans: a root span for the call, a
/// noise span per teleport-model build, a common span for the fan-out with
/// one span per worker, a runtime span per trial whose children are the
/// trial's obs::Profile phases (sched set-up, ent plan with nested net
/// routing, des drive, runtime finalize, derived from the profile and laid
/// out in execution order) and an obs span for reading the profile back,
/// then runtime fold and obs registry read-out spans. Each worker attaches
/// its own obs::Observe so per-trial profile deltas are exact. The result
/// is bit-identical to issue_call's.
std::vector<dqcsim::runtime::AggregateResult> traced_call(
    const Workload& w, const Call& call, std::uint64_t base_seed,
    int threads, Tracer& tracer, TracedTotals& totals);

/// Per-trial statistics from RunContext::execute on a reused context.
struct TrialStats {
  std::vector<double> trial_us;      ///< steady-state trials only
  std::vector<double> call_steady_ms;  ///< per call: sum of its trials
  std::uint64_t allocations = 0;     ///< operator new during those trials
  std::size_t trials = 0;
  double attempts = 0, successes = 0, consumed = 0, wasted = 0;
  double segments_asap = 0, segments_alap = 0, segments_original = 0;
  double remote_wait = 0, pair_age = 0, route_hops = 0, swaps = 0;
  double reroutes = 0, outage_events = 0, downtime = 0;
  double salvaged = 0, discarded = 0;
};

/// Run every trial of `call` serially on one warm RunContext per point
/// (after an untimed warm-up sweep over the same seeds), check each trial,
/// check that their in-order fold equals `expected` bit for bit, and
/// accumulate into `stats`. Failing trials are counted into `failed`. When
/// `keep` is set it receives the first point's per-trial results.
void probe_trials(const Workload& w, const Call& call,
                  const std::vector<dqcsim::runtime::AggregateResult>& expected,
                  std::uint64_t base_seed, TrialStats& stats, CheckLog& log,
                  std::size_t& failed,
                  std::vector<dqcsim::runtime::RunResult>* keep);

}  // namespace perfbench
