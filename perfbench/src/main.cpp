// dqcsim end-to-end + per-layer benchmark.
//
//   dqcsim_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --threads <t> --check-threads <t>
//                    --reference <reference.tsv> [--trace-out <spans.json>]
//   dqcsim_perfbench --record-reference <trials> --threads <t>
//
// --trace 0 measures the end-to-end metrics on untraced driver calls
// (ArchConfig::observe null), with host times scaled to the reference host
// speed (calibrate.hpp); --trace 1 measures the per-layer metrics in a
// separate run with traced calls, standalone layer probes and trial-by-trial
// counters. Every measured driver call runs on --threads workers; the output
// check (check.hpp), which both modes run, replays calls on --check-threads
// workers, and --trace 1 also measures the pool's fan-out there. The last
// line of stdout
// is one JSON object {"correct", "attempted", "failed", "metrics"}; lines
// before it are '#'-prefixed diagnostics.

#include <sys/resource.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "check.hpp"
#include "driver.hpp"
#include "probes.hpp"
#include "runtime/experiment.hpp"
#include "trace.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using dqcsim::runtime::AggregateResult;
using dqcsim::runtime::RunResult;

// Set-up rounds before the first pass; more rounds follow between passes
// (see Setup) and set-up time is the median of all of them.
constexpr int kSetupRounds = 5;
// Samples taken between passes (set-up rounds, host-speed calibrations)
// are spaced at least run time / this.
constexpr double kSamplesPerRun = 100.0;
// Untimed warm-up before measuring: the first passes after start-up run
// several times slower (cold caches, idle cores ramping up).
constexpr double kWarmupSeconds = 1.0;
// Traced passes stop once this many spans are held (about 10 MB), which
// bounds the memory and the trace file of long runs.
constexpr std::size_t kMaxTracedSpans = 200000;
// Base seed of the reference trials: far from every benchmark base seed.
constexpr std::uint64_t kReferenceBaseSeed = std::uint64_t{1} << 62;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  int threads = 0;
  int check_threads = 0;
  std::string reference;
  std::string trace_out;
  int record_reference = 0;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "dqcsim_perfbench: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = std::stoi(value);
      } else if (key == "--threads") {
        opt.threads = std::stoi(value);
      } else if (key == "--check-threads") {
        opt.check_threads = std::stoi(value);
      } else if (key == "--reference") {
        opt.reference = value;
      } else if (key == "--trace-out") {
        opt.trace_out = value;
      } else if (key == "--record-reference") {
        opt.record_reference = std::stoi(value);
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (opt.threads < 1 || (hw > 0 && opt.threads > hw)) {
    usage("--threads must be in [1, hardware threads]");
  }
  if (opt.record_reference > 0) return opt;
  if (opt.check_threads < 1 || (hw > 0 && opt.check_threads > hw)) {
    usage("--check-threads must be in [1, hardware threads]");
  }
  if (opt.trace != 0 && opt.trace != 1) usage("--trace must be 0 or 1");
  if (!(opt.seconds > 0.0) || opt.seconds > 60.0) {
    usage("--seconds must be in (0, 60]");
  }
  if (opt.reference.empty()) usage("--reference is required");
  bool known = false;
  for (const std::string& name : workload_names()) {
    known |= name == opt.workload;
  }
  if (!known) usage("unknown workload '" + opt.workload + "'");
  return opt;
}

/// The library's base seed for a benchmark seed.
std::uint64_t base_seed_of(std::uint64_t seed) {
  return 1000 + seed * 1000003;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Set-up timing. The first round builds the workload the run uses (and is
/// the traced round when tracing); further rounds, a few before the first
/// pass and then one between passes at most every `spacing` seconds, only
/// add timings, so the median samples the whole run rather than its
/// first milliseconds.
struct Setup {
  std::string name;
  Workload workload;
  std::vector<double> total_s, gen_ms, partition_ms;
  std::uint32_t trace = 0;  ///< trace id of the traced round
  std::uint64_t spacing_ns = 0;
  std::uint64_t last_ns = 0;

  Setup(const std::string& workload_name, double run_seconds, Tracer* tracer)
      : name(workload_name),
        spacing_ns(static_cast<std::uint64_t>(run_seconds * 1e9 /
                                              kSamplesPerRun)) {
    if (tracer != nullptr) trace = tracer->next_trace();
    workload = round(tracer);
    for (int r = 1; r < kSetupRounds; ++r) round(nullptr);
    compute_ideal_depths(workload);
  }

  /// One more untraced round if the last one is at least `spacing` old.
  void maybe_sample() {
    if (now_ns() - last_ns >= spacing_ns) round(nullptr);
  }

 private:
  Workload round(Tracer* tracer) {
    SetupTiming timing;
    Workload w = build_workload(name, timing, tracer, trace);
    total_s.push_back(timing.total_ns() * 1e-9);
    gen_ms.push_back(timing.gen_ns * 1e-6);
    partition_ms.push_back(timing.partition_ns * 1e-6);
    last_ns = now_ns();
    return w;
  }
};

/// Host-speed calibrations (calibrate.hpp) between timed passes, at most
/// one per `spacing_ns`.
struct HostSpeed {
  std::uint64_t spacing_ns = 0;
  std::uint64_t last_ns = 0;
  std::vector<double> ns;

  void maybe_sample() {
    if (!ns.empty() && now_ns() - last_ns < spacing_ns) return;
    ns.push_back(calibration_ns());
    last_ns = now_ns();
  }
  /// How much slower this host ran than the reference host (> 1: slower).
  double slowdown() const { return median(ns) / kReferenceCalibrationNs; }
};

/// Seed stride between passes: pass k runs seeds base + k * stride + r.
constexpr std::uint64_t kPassSeedStride = 1000;

std::size_t call_trials(const Call& call) {
  return call.points.size() * static_cast<std::size_t>(call.runs);
}

/// Bits of a cell aggregate that a replay of the same seeds must reproduce.
struct Digest {
  std::array<std::uint64_t, 4> bits{};
  bool valid = false;  ///< false for a cell whose call threw

  static Digest of(const AggregateResult& agg) {
    return {{std::bit_cast<std::uint64_t>(agg.depth.mean()),
             std::bit_cast<std::uint64_t>(agg.depth.variance()),
             std::bit_cast<std::uint64_t>(agg.fidelity.mean()),
             std::bit_cast<std::uint64_t>(agg.fidelity.variance())},
            true};
  }
  bool matches(const Digest& o) const {
    return valid && o.valid && bits == o.bits;
  }
};

/// A cell's trials pooled over every pass.
struct CellPool {
  dqcsim::Accumulator depth;
  dqcsim::Accumulator fidelity;
};

/// Bookkeeping shared by both modes.
struct RunState {
  const Workload* w = nullptr;
  const ReferenceTable* refs = nullptr;
  std::uint64_t base_seed = 0;
  int threads = 1;        ///< workers of every measured driver call
  int check_threads = 1;  ///< workers of the invariance replays
  std::vector<std::vector<AggregateResult>> first;  ///< pass 0, per call
  std::vector<std::vector<CellPool>> pools;         ///< per call, per point
  std::vector<std::vector<Digest>> digests;         ///< per pass, per cell
  CheckLog log;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  std::uint64_t pass_seed(std::size_t pass) const {
    return base_seed + static_cast<std::uint64_t>(pass) * kPassSeedStride;
  }
};

/// Host time of untraced driver calls.
struct CallTiming {
  std::vector<double> call_ms;
  std::vector<double> pass_s;
  double wall_ns = 0.0;
};

/// One pass of untraced driver calls with pass `pass`'s seeds. A call that
/// throws returns no aggregates and counts all its trials as failed.
std::vector<std::vector<AggregateResult>> run_pass(RunState& st,
                                                   std::size_t pass,
                                                   int threads,
                                                   CallTiming& timing) {
  std::vector<std::vector<AggregateResult>> out;
  double pass_ns = 0.0;
  for (const Call& call : st.w->calls) {
    const std::uint64_t t0 = now_ns();
    try {
      out.push_back(issue_call(*st.w, call, st.pass_seed(pass), threads));
    } catch (const std::exception& e) {
      out.emplace_back();
      st.failed += call_trials(call);
      st.log.fail(call.cells[0] + ": driver call threw: " + e.what());
    }
    const auto ns = static_cast<double>(now_ns() - t0);
    timing.call_ms.push_back(ns * 1e-6);
    pass_ns += ns;
    st.attempted += call_trials(call);
  }
  timing.wall_ns += pass_ns;
  timing.pass_s.push_back(pass_ns * 1e-9);
  return out;
}

/// Check one pass's cells, pool them and keep their digests (and the
/// aggregates of pass 0).
void absorb_pass(RunState& st, std::vector<std::vector<AggregateResult>> aggs) {
  const Workload& w = *st.w;
  if (st.pools.empty()) {
    for (const Call& call : w.calls) st.pools.emplace_back(call.points.size());
  }
  std::vector<Digest> digests;
  for (std::size_t c = 0; c < w.calls.size(); ++c) {
    const Call& call = w.calls[c];
    if (aggs[c].empty()) digests.resize(digests.size() + call.points.size());
    for (std::size_t p = 0; p < aggs[c].size(); ++p) {
      const AggregateResult& agg = aggs[c][p];
      CheckLog cell_log;
      check_cell(call.cells[p], agg, call.runs,
                 w.instances[call.instance].ideal_depth, cell_log);
      if (!cell_log.ok()) {
        st.failed += static_cast<std::size_t>(call.runs);
        for (const std::string& f : cell_log.failures) st.log.fail(f);
      }
      st.pools[c][p].depth.merge(agg.depth);
      st.pools[c][p].fidelity.merge(agg.fidelity);
      digests.push_back(Digest::of(agg));
    }
  }
  st.digests.push_back(std::move(digests));
  if (st.first.empty()) st.first = std::move(aggs);
}

std::uint64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
}

/// Untimed warm-up passes for kWarmupSeconds, checked and pooled like the
/// timed ones. Returns the index of the next pass.
std::size_t warm_up(RunState& st) {
  CallTiming ignored;
  std::size_t pass = 0;
  for (const auto end = deadline_after(kWarmupSeconds); now_ns() < end;) {
    absorb_pass(st, run_pass(st, pass++, st.threads, ignored));
  }
  return pass;
}

/// Run `f`; if it throws, log the failure and count `trials` as attempted
/// and failed.
template <typename F>
void guarded(RunState& st, std::size_t trials, const std::string& what,
             F&& f) {
  try {
    f();
  } catch (const std::exception& e) {
    st.attempted += trials;
    st.failed += trials;
    st.log.fail(what + " threw: " + e.what());
  }
}

/// Warm-up, then timed passes until `seconds` have elapsed at a pass
/// boundary (at least one pass), with set-up rounds and host-speed
/// calibrations in between.
CallTiming timed_passes(RunState& st, Setup& setup, HostSpeed& speed,
                        double seconds) {
  std::size_t pass = warm_up(st);
  CallTiming timing;
  const auto deadline = deadline_after(seconds);
  do {
    absorb_pass(st, run_pass(st, pass++, st.threads, timing));
    setup.maybe_sample();
    speed.maybe_sample();
  } while (now_ns() < deadline);
  return timing;
}

/// Pooled checks: every cell's mean against its reference and, on the
/// paper grid, the depth order. A failing cell counts all its trials.
void check_pooled(RunState& st) {
  const Workload& w = *st.w;
  for (std::size_t c = 0; c < w.calls.size(); ++c) {
    const Call& call = w.calls[c];
    std::size_t call_pooled = 0;
    std::vector<double> depths;
    std::vector<dqcsim::runtime::DesignKind> designs;
    for (std::size_t p = 0; p < call.points.size(); ++p) {
      const CellPool& pool = st.pools[c][p];
      const auto ref = st.refs->find(w.name + "|" + call.cells[p]);
      CheckLog cell_log;
      check_reference(call.cells[p], pool.depth, pool.fidelity,
                      ref == st.refs->end() ? nullptr : &ref->second,
                      cell_log);
      if (!cell_log.ok()) {
        st.failed += pool.depth.count();
        for (const std::string& f : cell_log.failures) st.log.fail(f);
      }
      call_pooled += pool.depth.count();
      depths.push_back(pool.depth.mean());
      designs.push_back(call.points[p].design);
    }
    if (w.paper_order) {
      CheckLog order_log;
      check_paper_order(w.instances[call.instance].name, designs, depths,
                        order_log);
      if (!order_log.ok()) {
        st.failed += call_pooled;
        for (const std::string& f : order_log.failures) st.log.fail(f);
      }
    }
  }
}

/// Compare a replay of pass 0's call `c` on `threads` workers bit for bit
/// with pass 0.
void check_replay(RunState& st, std::size_t c, int threads,
                  const std::vector<AggregateResult>& replay) {
  const Call& call = st.w->calls[c];
  for (std::size_t p = 0; p < replay.size() && p < st.first[c].size(); ++p) {
    if (!identical(replay[p], st.first[c][p])) {
      st.failed += static_cast<std::size_t>(call.runs);
      st.log.fail(call.cells[p] + ": threads=" + std::to_string(threads) +
                  " aggregate differs from threads=" +
                  std::to_string(st.threads));
    }
  }
}

/// Trial-by-trial probe of `calls` with pass 0's seeds, then the check's
/// self-test on the check call's first cell.
TrialStats check_trials_and_self_test(RunState& st,
                                      const std::vector<std::size_t>& calls) {
  const Workload& w = *st.w;
  TrialStats stats;
  std::size_t reserve = 0;
  for (const std::size_t c : calls) reserve += call_trials(w.calls[c]);
  stats.trial_us.reserve(reserve);
  std::vector<RunResult> kept;
  for (const std::size_t c : calls) {
    guarded(st, call_trials(w.calls[c]), w.calls[c].cells[0] + ": trial probe",
            [&] {
              probe_trials(w, w.calls[c], st.first[c], st.pass_seed(0), stats,
                           st.log, st.failed,
                           c == w.check_call ? &kept : nullptr);
              st.attempted += call_trials(w.calls[c]);
            });
  }
  const Call& check = w.calls[w.check_call];
  const std::size_t caught = self_test(
      w.name, check.cells[0], kept, w.instances[check.instance].ideal_depth,
      prefilled_pairs(check.points[0].config, check.points[0].design),
      *st.refs, st.log);
  std::printf("# self-test: %zu of %zu corruptions caught\n", caught,
              kSelfTestCases);
  return stats;
}

using Metrics =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void print_result(const RunState& st, const Metrics& metrics) {
  for (std::size_t i = 0; i < st.log.failures.size() && i < 20; ++i) {
    std::printf("# CHECK FAILED: %s\n", st.log.failures[i].c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              st.log.ok() ? "true" : "false", st.attempted, st.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.c_str(),
                metrics[i].second.first, metrics[i].second.second.c_str());
  }
  std::printf("}}\n");
}

Metrics end_to_end(RunState& st, Setup& setup, double seconds) {
  const Workload& w = *st.w;
  HostSpeed speed;
  speed.spacing_ns = setup.spacing_ns;
  const CallTiming timing = timed_passes(st, setup, speed, seconds);
  const std::size_t passes = timing.pass_s.size();
  const auto trials = static_cast<double>(trials_per_pass(w) * passes);
  const std::size_t pooled = st.digests.size();
  check_pooled(st);
  const Call& check = w.calls[w.check_call];
  guarded(st, call_trials(check), check.cells[0] + ": replay call", [&] {
    check_replay(st, w.check_call, st.check_threads,
                 issue_call(w, check, st.pass_seed(0), st.check_threads));
    st.attempted += call_trials(check);
  });
  check_trials_and_self_test(st, {w.check_call});

  // Simulated figures of merit: geometric means over cells of the pooled
  // mean depth / ideal depth and of the pooled mean fidelity.
  std::vector<double> ratios;
  std::vector<double> fidelities;
  for (std::size_t c = 0; c < w.calls.size(); ++c) {
    const double ideal = w.instances[w.calls[c].instance].ideal_depth;
    for (const CellPool& pool : st.pools[c]) {
      ratios.push_back(pool.depth.mean() / ideal);
      fidelities.push_back(pool.fidelity.mean());
    }
  }
  const double sim_fidelity = geomean(fidelities);
  const double pct = tail_percentile(timing.call_ms.size(), w.tail_pct);
  std::printf("# %zu timed passes (%.0f trials) after %zu warm-up passes; "
              "call_ms.tail is p%g of %zu calls\n",
              passes, trials, pooled - passes, pct, timing.call_ms.size());
  std::printf("# sim_fidelity = %.17g\n", sim_fidelity);
  const double fail_frac =
      static_cast<double>(st.failed) / static_cast<double>(st.attempted);
  std::printf("# trial_fail_frac = %.17g (%zu of %zu trials)\n", fail_frac,
              st.failed, st.attempted);

  // Host times as measured, then scaled to the reference host speed.
  const double setup_s = median(setup.total_s);
  const double trials_per_s = trials / (timing.wall_ns * 1e-9);
  const double call_p50 = median(timing.call_ms);
  const double call_tail = quantile(timing.call_ms, pct / 100.0);
  const double slowdown = speed.slowdown();
  std::printf("# host speed: calibration kernel median %.4g ms over %zu "
              "samples (reference %.4g ms); host times are divided by %.6g\n",
              median(speed.ns) * 1e-6, speed.ns.size(),
              kReferenceCalibrationNs * 1e-6, slowdown);
  std::printf("# unscaled: setup_s %.6g, trials_per_s %.6g, call_ms.p50 "
              "%.6g, call_ms.tail %.6g\n",
              setup_s, trials_per_s, call_p50, call_tail);
  std::printf("# unscaled call_ms percentiles: p90 %.6g, p95 %.6g, p99 %.6g, "
              "p99.9 %.6g\n",
              quantile(timing.call_ms, 0.9), quantile(timing.call_ms, 0.95),
              quantile(timing.call_ms, 0.99), quantile(timing.call_ms, 0.999));
  return {
      {"setup_s", {setup_s / slowdown, "s"}},
      {"trials_per_s", {trials_per_s * slowdown, "trials/s"}},
      {"call_ms.p50", {call_p50 / slowdown, "ms"}},
      {"call_ms.tail", {call_tail / slowdown, "ms"}},
      {"peak_rss_mb", {peak_rss_mib(), "MiB"}},
      {"sim_depth_ratio", {geomean(ratios), "ratio"}},
      {"sim_neg_log_fidelity", {-std::log(sim_fidelity), "nats"}},
      {"trial_ok_frac", {1.0 - fail_frac, "ratio"}},
  };
}

Metrics per_layer(RunState& st, Setup& setup, double seconds,
                  Tracer& tracer, const std::string& trace_out) {
  const Workload& w = *st.w;
  // Untraced and traced passes alternate (each traced pass replays the
  // seeds of the untraced pass before it) until `seconds` have elapsed or
  // kMaxTracedSpans are held, then untraced passes continue alone until
  // `seconds`; finally pass 0 runs again untraced at threads = 1 and at
  // --check-threads. Both replays must reproduce pass 0 bit for bit, and
  // their wall times give the pool's fan-out speed-up on the same calls.
  CallTiming untraced;
  TracedTotals totals;
  std::vector<double> traced_pass_s;
  std::size_t next = warm_up(st);
  const std::size_t first_timed = next;
  const auto deadline = deadline_after(seconds);
  do {
    const std::size_t pass = next++;
    absorb_pass(st, run_pass(st, pass, st.threads, untraced));
    setup.maybe_sample();
    if (tracer.size() >= kMaxTracedSpans) continue;
    const std::uint64_t t0 = now_ns();
    std::size_t cell = 0;
    for (const Call& call : w.calls) {
      const std::size_t first_cell = cell;
      cell += call.points.size();
      guarded(st, call_trials(call), call.cells[0] + ": traced call", [&] {
        const std::vector<AggregateResult> aggs = traced_call(
            w, call, st.pass_seed(pass), st.threads, tracer, totals);
        st.attempted += call_trials(call);
        for (std::size_t p = 0; p < aggs.size(); ++p) {
          if (!Digest::of(aggs[p]).matches(
                  st.digests[pass][first_cell + p])) {
            st.failed += static_cast<std::size_t>(call.runs);
            st.log.fail(call.cells[p] +
                        ": traced call differs from untraced");
          }
        }
      });
    }
    traced_pass_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  } while (now_ns() < deadline);
  const std::size_t passes = next - first_timed;
  const std::size_t traced_passes = traced_pass_s.size();

  CallTiming serial;
  CallTiming fanned;
  const std::vector<std::vector<AggregateResult>> serial_aggs =
      run_pass(st, 0, 1, serial);
  const std::vector<std::vector<AggregateResult>> fanned_aggs =
      run_pass(st, 0, st.check_threads, fanned);
  for (std::size_t c = 0; c < w.calls.size(); ++c) {
    check_replay(st, c, 1, serial_aggs[c]);
    check_replay(st, c, st.check_threads, fanned_aggs[c]);
  }
  check_pooled(st);
  std::vector<std::size_t> all_calls;
  for (std::size_t c = 0; c < w.calls.size(); ++c) all_calls.push_back(c);
  const TrialStats ts = check_trials_and_self_test(st, all_calls);

  const ProbeTrace pt{&tracer, tracer.next_trace()};
  const double model_ms = probe_teleport_model_ms(w.probe_config, 9, pt);
  const GenerationProbe gen = probe_generation(
      w.probe_config, dqcsim::runtime::DesignKind::AsyncBuf, st.base_seed, 3,
      pt);
  const double event_ns = probe_des_event_ns(st.base_seed, 5, pt);
  const double router_ms = probe_router_build_ms(w.topologies, 101, pt);

  // Layer self times of one set-up round plus one pass: the traced set-up
  // round and the traced passes' driver calls divided by the pass count.
  // Probe spans are written out but not counted here.
  std::vector<Span> pass_spans;
  std::vector<Span> setup_spans;
  const std::vector<Span> all = tracer.spans();
  for (const Span& s : all) {
    if (s.trace == setup.trace) {
      setup_spans.push_back(s);
    } else if (s.trace != pt.trace) {
      pass_spans.push_back(s);
    }
  }
  const Attribution per_pass = attribute(pass_spans);
  const Attribution once = attribute(setup_spans);
  std::printf("# traced: %zu spans, %zu driver calls; largest gap between a "
              "call span and its layer self times: %.3g of the span\n",
              all.size(), per_pass.roots, per_pass.worst_root_error);
  if (per_pass.worst_root_error > 1e-6) {
    st.log.fail("layer self times do not account for a driver call span");
  }
  if (!trace_out.empty() && !tracer.write_chrome_json(trace_out)) {
    std::printf("# could not write %s\n", trace_out.c_str());
  }

  const auto n = static_cast<double>(ts.trials);
  const double untraced_pass = median(untraced.pass_s);
  std::vector<double> overhead;
  for (std::size_t c = 0;
       c < serial.call_ms.size() && c < ts.call_steady_ms.size(); ++c) {
    overhead.push_back(serial.call_ms[c] - ts.call_steady_ms[c]);
  }
  double cut = 0.0;
  for (const Instance& inst : w.instances) cut += inst.cut;
  const auto calls_traced = static_cast<double>(totals.calls);
  const auto phase_ms = [&](dqcsim::obs::Phase p) {
    return totals.phase_ns[static_cast<std::size_t>(p)] * 1e-6 / calls_traced;
  };
  const auto hits = static_cast<double>(totals.setup_cache_hits);
  const auto misses = static_cast<double>(totals.setup_cache_misses);
  const auto builds = static_cast<double>(model_builds_per_pass(w) * passes);
  const double pct = tail_percentile(ts.trial_us.size());
  std::printf("# %zu untraced and %zu traced passes; per-trial probe: %zu "
              "trials, runtime.trial_us.tail is p%g\n",
              passes, traced_passes, ts.trials, pct);
  std::printf("# self_ms.<layer>: wall time of one set-up round plus one "
              "pass, charged to layers by span self time\n");
  std::printf("# noise.model_share is computed: model builds x "
              "noise.teleport_model_ms / untraced call time\n");

  using dqcsim::obs::Phase;
  Metrics m = {
      {"gen.build_ms", {median(setup.gen_ms), "ms"}},
      {"partition.ms", {median(setup.partition_ms), "ms"}},
      {"partition.cut", {cut, "count"}},
      {"noise.teleport_model_ms", {model_ms, "ms"}},
      {"noise.model_share",
       {builds * model_ms / (untraced.wall_ns * 1e-6), "ratio"}},
      {"runtime.trial_us.p50", {median(ts.trial_us), "us"}},
      {"runtime.trial_us.tail", {quantile(ts.trial_us, pct / 100.0), "us"}},
      {"runtime.call_overhead_ms", {median(overhead), "ms"}},
      {"runtime.allocs_per_trial",
       {static_cast<double>(ts.allocations) / n, "count"}},
      {"runtime.phase.setup_ms", {phase_ms(Phase::Setup), "ms"}},
      {"runtime.phase.routing_ms", {phase_ms(Phase::Routing), "ms"}},
      {"runtime.phase.plan_ms", {phase_ms(Phase::Plan), "ms"}},
      {"runtime.phase.drive_ms", {phase_ms(Phase::Drive), "ms"}},
      {"runtime.phase.finalize_ms", {phase_ms(Phase::Finalize), "ms"}},
      {"runtime.setup_cache_hit_ratio",
       {hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"}},
      {"ent.attempts_per_trial", {ts.attempts / n, "count"}},
      {"ent.successes_per_trial", {ts.successes / n, "count"}},
      {"ent.consumed_per_trial", {ts.consumed / n, "count"}},
      {"ent.wasted_per_trial", {ts.wasted / n, "count"}},
      {"ent.useful_ratio",
       {ts.successes > 0 ? ts.consumed / ts.successes : 0.0, "ratio"}},
      {"ent.window_ns", {gen.window_ns, "ns"}},
      {"des.event_ns", {event_ns, "ns"}},
      {"des.events_per_window", {gen.events_per_window, "ratio"}},
      {"sched.segments_asap_per_trial", {ts.segments_asap / n, "count"}},
      {"sched.segments_alap_per_trial", {ts.segments_alap / n, "count"}},
      {"sched.segments_original_per_trial",
       {ts.segments_original / n, "count"}},
      {"sched.remote_wait_mean", {ts.remote_wait / n, "t_cnot"}},
      {"sched.pair_age_mean", {ts.pair_age / n, "t_cnot"}},
      {"net.router_build_ms", {router_ms, "ms"}},
      {"net.route_hops_mean", {ts.route_hops / n, "hops"}},
      {"net.swaps_per_trial", {ts.swaps / n, "count"}},
      {"net.reroutes_per_trial", {ts.reroutes / n, "count"}},
      {"scenario.outage_events_per_trial", {ts.outage_events / n, "count"}},
      {"scenario.downtime_per_trial", {ts.downtime / n, "t_cnot"}},
      {"scenario.salvaged_per_trial", {ts.salvaged / n, "count"}},
      {"scenario.discarded_per_trial", {ts.discarded / n, "count"}},
      {"pool.fanout_speedup", {serial.wall_ns / fanned.wall_ns, "ratio"}},
      {"obs.trace_overhead_frac",
       {(median(traced_pass_s) - untraced_pass) / untraced_pass, "ratio"}},
  };
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const double ms =
        (per_pass.total[l] / static_cast<double>(traced_passes) +
         once.total[l]) *
        1e-6;
    m.push_back({std::string("self_ms.") + layer_name(static_cast<Layer>(l)),
                 {ms, "ms"}});
  }
  return m;
}

int record_reference(int trials, int threads) {
  std::printf("# workload\tcell\ttrials\tdepth_mean\tdepth_sd\t"
              "fidelity_mean\tfidelity_sd\n");
  for (const std::string& name : workload_names()) {
    SetupTiming timing;
    const Workload w = build_workload(name, timing, nullptr, 0);
    for (const Call& call : w.calls) {
      Call big = call;
      big.runs = trials;
      const std::vector<AggregateResult> aggs =
          issue_call(w, big, kReferenceBaseSeed, threads);
      for (std::size_t p = 0; p < aggs.size(); ++p) {
        std::printf("%s\t%s\t%d\t%.17g\t%.17g\t%.17g\t%.17g\n", name.c_str(),
                    call.cells[p].c_str(), trials, aggs[p].depth.mean(),
                    aggs[p].depth.stddev(), aggs[p].fidelity.mean(),
                    aggs[p].fidelity.stddev());
      }
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    if (opt.record_reference > 0) {
      return record_reference(opt.record_reference, opt.threads);
    }
    const ReferenceTable refs = load_reference(opt.reference);
    Tracer tracer;
    Setup setup(opt.workload, opt.seconds,
                opt.trace == 1 ? &tracer : nullptr);
    RunState st;
    st.w = &setup.workload;
    st.refs = &refs;
    st.base_seed = base_seed_of(opt.seed);
    st.threads = opt.threads;
    st.check_threads = opt.check_threads;
    std::printf("# workload %s, seed %llu (base seed %llu), threads %d "
                "(check threads %d), %zu trials per pass\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(st.base_seed), opt.threads,
                opt.check_threads, trials_per_pass(setup.workload));
    const Metrics metrics =
        opt.trace == 0
            ? end_to_end(st, setup, opt.seconds)
            : per_layer(st, setup, opt.seconds, tracer, opt.trace_out);
    print_result(st, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dqcsim_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
