#include "driver.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/thread_pool.hpp"
#include "noise/teleport_fidelity.hpp"
#include "obs/observe.hpp"
#include "runtime/engine.hpp"
#include "runtime/experiment.hpp"
#include "util.hpp"

namespace perfbench {

namespace {

using dqcsim::obs::Phase;
using dqcsim::runtime::AggregateResult;
using dqcsim::runtime::ArchConfig;
using dqcsim::runtime::RunResult;

/// Per-worker state of a traced call; only its own worker touches it.
struct WorkerTrace {
  std::shared_ptr<dqcsim::obs::Observe> observe;
  std::vector<ArchConfig> configs;  ///< call points with observe attached
  dqcsim::obs::Profile last;        ///< collector profile after last trial
  std::uint32_t span_id = 0;
  std::uint32_t thread = 0;
  std::uint64_t first_ns = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t last_ns = 0;
  std::array<double, dqcsim::obs::kPhaseCount> phase_ns{};
};

/// Record the trial's profile phases as child spans of `trial`, laid out
/// in execution order from `start` (Routing nests inside Plan).
void record_phases(Tracer& tracer, const Span& trial,
                   const dqcsim::obs::Profile& now,
                   const dqcsim::obs::Profile& before, WorkerTrace& wt) {
  const auto delta = [&](Phase p) {
    const std::uint64_t ns = now.total_ns(p) - before.total_ns(p);
    wt.phase_ns[static_cast<std::size_t>(p)] += static_cast<double>(ns);
    return ns;
  };
  const std::uint64_t setup = delta(Phase::Setup);
  const std::uint64_t routing = delta(Phase::Routing);
  const std::uint64_t plan = delta(Phase::Plan);
  const std::uint64_t drive = delta(Phase::Drive);
  const std::uint64_t finalize = delta(Phase::Finalize);
  std::uint64_t at = trial.start_ns;
  const auto emit = [&](std::uint64_t ns, std::uint32_t parent, Layer layer,
                        const char* name) {
    Span s;
    s.id = tracer.next_id();
    s.parent = parent;
    s.trace = trial.trace;
    s.layer = layer;
    s.name = name;
    s.start_ns = at;
    s.end_ns = at + ns;
    s.thread = trial.thread;
    tracer.record(s);
    return s.id;
  };
  if (setup > 0) {
    emit(setup, trial.id, Layer::Sched, "sched.setup_phase");
    at += setup;
  }
  if (plan > 0) {
    const std::uint32_t plan_id =
        emit(plan, trial.id, Layer::Ent, "ent.plan_phase");
    if (routing > 0) emit(routing, plan_id, Layer::Net, "net.routing_phase");
    at += plan;
  }
  emit(drive, trial.id, Layer::Des, "des.drive_phase");
  at += drive;
  emit(finalize, trial.id, Layer::Runtime, "runtime.finalize_phase");
}

}  // namespace

dqcsim::noise::TeleportNoiseParams teleport_params(const ArchConfig& config) {
  dqcsim::noise::TeleportNoiseParams params;
  params.local_2q_fidelity = config.fid.local_cnot;
  params.local_1q_fidelity = config.fid.one_qubit;
  params.readout_fidelity = config.fid.measurement;
  return params;
}

std::vector<AggregateResult> issue_call(const Workload& w, const Call& call,
                                        std::uint64_t base_seed,
                                        int threads) {
  const Instance& inst = w.instances[call.instance];
  if (call.matrix) {
    return dqcsim::runtime::run_design_matrix(inst.circuit, inst.assignment,
                                              call.points, call.runs,
                                              base_seed, threads);
  }
  return {dqcsim::runtime::run_design(
      inst.circuit, inst.assignment, call.points[0].config,
      call.points[0].design, call.runs, base_seed, threads)};
}

std::vector<AggregateResult> traced_call(const Workload& w, const Call& call,
                                         std::uint64_t base_seed, int threads,
                                         Tracer& tracer,
                                         TracedTotals& totals) {
  const Instance& inst = w.instances[call.instance];
  const std::uint32_t trace = tracer.next_trace();
  const ScopedSpan call_span(&tracer, trace, 0, Layer::Runtime,
                             call.matrix ? "runtime.run_design_matrix"
                                         : "runtime.run_design");
  std::vector<dqcsim::noise::TeleportFidelityModel> models;
  models.reserve(call.points.size());
  for (const dqcsim::runtime::DesignPoint& point : call.points) {
    const ScopedSpan span(&tracer, trace, call_span.id(), Layer::Noise,
                          "noise.teleport_model");
    models.emplace_back(teleport_params(point.config));
  }

  const auto runs = static_cast<std::size_t>(call.runs);
  std::vector<RunResult> cells(call.points.size() * runs);
  const std::size_t workers = dqcsim::parallel_worker_count(
      cells.size(), static_cast<std::size_t>(threads));
  std::vector<dqcsim::runtime::RunContext> contexts(workers);
  std::vector<WorkerTrace> wts(workers);
  for (WorkerTrace& wt : wts) {
    wt.observe = dqcsim::obs::make_observe();
    for (const dqcsim::runtime::DesignPoint& point : call.points) {
      wt.configs.push_back(point.config);
      wt.configs.back().observe = wt.observe;
    }
    wt.span_id = tracer.next_id();
  }
  {
    const ScopedSpan fan(&tracer, trace, call_span.id(), Layer::Common,
                         "common.parallel_for_workers");
    dqcsim::parallel_for_workers(
        cells.size(),
        [&](std::size_t worker, std::size_t cell) {
          WorkerTrace& wt = wts[worker];
          const std::size_t p = cell / runs;
          Span trial;
          trial.id = tracer.next_id();
          trial.parent = wt.span_id;
          trial.trace = trace;
          trial.layer = Layer::Runtime;
          trial.name = "runtime.trial";
          trial.thread = thread_index();
          trial.start_ns = now_ns();
          cells[cell] = contexts[worker].execute(
              inst.circuit, inst.assignment, wt.configs[p],
              call.points[p].design,
              base_seed + static_cast<std::uint64_t>(cell % runs),
              &models[p]);
          const std::uint64_t executed = now_ns();
          const dqcsim::obs::Profile profile = wt.observe->collector.profile();
          trial.end_ns = now_ns();
          Span collect = trial;
          collect.id = tracer.next_id();
          collect.parent = trial.id;
          collect.layer = Layer::Obs;
          collect.name = "obs.profile_read";
          collect.start_ns = executed;
          tracer.record(collect);
          record_phases(tracer, trial, profile, wt.last, wt);
          tracer.record(trial);
          wt.last = profile;
          wt.thread = trial.thread;
          wt.first_ns = std::min(wt.first_ns, trial.start_ns);
          wt.last_ns = std::max(wt.last_ns, trial.end_ns);
        },
        static_cast<std::size_t>(threads));
    for (std::size_t k = 0; k < workers; ++k) {
      if (wts[k].last_ns == 0) continue;
      Span s;
      s.id = wts[k].span_id;
      s.parent = fan.id();
      s.trace = trace;
      s.layer = Layer::Common;
      s.name = "common.worker";
      s.start_ns = wts[k].first_ns;
      s.end_ns = wts[k].last_ns;
      s.thread = wts[k].thread;
      tracer.record(s);
    }
  }

  std::vector<AggregateResult> aggregates(call.points.size());
  {
    const ScopedSpan span(&tracer, trace, call_span.id(), Layer::Runtime,
                          "runtime.fold");
    for (std::size_t p = 0; p < call.points.size(); ++p) {
      for (std::size_t r = 0; r < runs; ++r) {
        aggregates[p].add(cells[p * runs + r]);
      }
    }
  }
  {
    const ScopedSpan span(&tracer, trace, call_span.id(), Layer::Obs,
                          "obs.registry_read");
    for (const WorkerTrace& wt : wts) {
      const dqcsim::obs::Registry reg = wt.observe->collector.registry();
      totals.setup_cache_hits += reg.counter_value("setup_cache_hits");
      totals.setup_cache_misses += reg.counter_value("setup_cache_misses");
      for (std::size_t i = 0; i < dqcsim::obs::kPhaseCount; ++i) {
        totals.phase_ns[i] += wt.phase_ns[i];
      }
    }
  }
  ++totals.calls;
  return aggregates;
}

void probe_trials(const Workload& w, const Call& call,
                  const std::vector<AggregateResult>& expected,
                  std::uint64_t base_seed, TrialStats& stats, CheckLog& log,
                  std::size_t& failed, std::vector<RunResult>* keep) {
  const Instance& inst = w.instances[call.instance];
  const auto runs = static_cast<std::size_t>(call.runs);
  std::vector<RunResult> results(runs);
  std::vector<double> us(runs);
  double call_ms = 0.0;
  for (std::size_t p = 0; p < call.points.size(); ++p) {
    const dqcsim::runtime::DesignPoint& point = call.points[p];
    const dqcsim::noise::TeleportFidelityModel model(
        teleport_params(point.config));
    // Warm-up sweep over the same seeds: fills the setup cache and grows
    // every pool to the cell's high-water mark.
    dqcsim::runtime::RunContext ctx;
    for (std::size_t r = 0; r < runs; ++r) {
      ctx.execute(inst.circuit, inst.assignment, point.config, point.design,
                  base_seed + static_cast<std::uint64_t>(r), &model);
    }
    const std::uint64_t allocs_before = allocations();
    for (std::size_t r = 0; r < runs; ++r) {
      const std::uint64_t t0 = now_ns();
      results[r] = ctx.execute(inst.circuit, inst.assignment, point.config,
                               point.design,
                               base_seed + static_cast<std::uint64_t>(r),
                               &model);
      us[r] = static_cast<double>(now_ns() - t0) * 1e-3;
    }
    stats.allocations += allocations() - allocs_before;

    const std::string& cell = call.cells[p];
    for (std::size_t r = 0; r < runs; ++r) {
      const RunResult& run = results[r];
      CheckLog trial_log;
      check_trial(cell, run, inst.ideal_depth,
                  prefilled_pairs(point.config, point.design), trial_log);
      if (!trial_log.ok()) {
        ++failed;
        log.failures.insert(log.failures.end(), trial_log.failures.begin(),
                            trial_log.failures.end());
      }
      stats.trial_us.push_back(us[r]);
      call_ms += us[r] * 1e-3;
      ++stats.trials;
      stats.attempts += static_cast<double>(run.epr_attempts);
      stats.successes += static_cast<double>(run.epr_successes);
      stats.consumed += static_cast<double>(run.epr_consumed);
      stats.wasted += static_cast<double>(run.epr_wasted);
      stats.segments_asap += static_cast<double>(run.segments_asap);
      stats.segments_alap += static_cast<double>(run.segments_alap);
      stats.segments_original += static_cast<double>(run.segments_original);
      stats.remote_wait += run.avg_remote_wait;
      stats.pair_age += run.avg_pair_age;
      stats.route_hops += run.avg_route_hops;
      stats.swaps += static_cast<double>(run.entanglement_swaps);
      stats.reroutes += static_cast<double>(run.reroutes);
      stats.outage_events += static_cast<double>(run.outage_events);
      stats.downtime += run.outage_downtime;
      stats.salvaged += static_cast<double>(run.pairs_salvaged);
      stats.discarded += static_cast<double>(run.pairs_discarded);
    }
    if (p < expected.size() && !identical(fold(results), expected[p])) {
      failed += runs;
      log.fail(cell + ": trial-by-trial fold differs from the driver call");
    }
    if (keep != nullptr && p == 0) *keep = results;
  }
  stats.call_steady_ms.push_back(call_ms);
}

}  // namespace perfbench
