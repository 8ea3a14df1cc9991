/// \file perf_micro.cpp
/// \brief google-benchmark microbenchmarks of the library's hot paths
/// (not a paper experiment): DES throughput, partitioner, DAG analysis,
/// qsim density-matrix kernels, and full engine runs. Results are also
/// exported to BENCH_perf_micro.json for the CI perf gate (see
/// bench_report.hpp).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "dqcsim.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: the steady-state benchmarks report
// allocs-per-op to prove the DES pool and RunContext reuse keep the
// Monte-Carlo hot path allocation-free (see ISSUE 3 / README "Performance").
// Counting only — allocation behavior is unchanged.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace {
void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(alignment,
                                   (size + alignment - 1) / alignment *
                                       alignment)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace dqcsim;

/// Allocations since `since` (relaxed; the benches are single-threaded).
std::uint64_t allocs_since(std::uint64_t since) {
  return g_alloc_count.load(std::memory_order_relaxed) - since;
}

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  for (auto _ : state) {
    des::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(static_cast<double>((i * 7919) % 1000), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

// Steady-state DES churn: one Simulator reused via reset(), the way the
// Monte-Carlo trial loop drives it. After warmup the event pool, dispatch
// window and spill list are at their high-water marks, so an iteration
// (1000 schedules + 1000 dispatches) performs zero heap allocation —
// reported as the allocs_per_op counter, asserted ~0 by the bench gate.
void BM_EventQueueSteadyStateChurn(benchmark::State& state) {
  des::Simulator sim;
  for (int warm = 0; warm < 3; ++warm) {
    sim.reset();
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(static_cast<double>((i * 7919) % 1000), [] {});
    }
    sim.run();
  }
  const std::uint64_t allocs0 = allocs_since(0);
  for (auto _ : state) {
    sim.reset();
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(static_cast<double>((i * 7919) % 1000), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs_since(allocs0)) /
      static_cast<double>(state.iterations() * 1000));
}
BENCHMARK(BM_EventQueueSteadyStateChurn);

// Cancel-heavy DES workload (the purification-cutoff pattern): all events
// are scheduled far in the future, every other one is cancelled before it
// fires, and the survivors are drained. The old lazy-cancellation queue
// accumulated one tombstone per cancel until the entry's timestamp
// surfaced — unbounded growth on exactly this pattern; the pooled queue
// releases the slot immediately and compacts the index.
void BM_EventQueueScheduleCancelPop(benchmark::State& state) {
  des::Simulator sim;
  std::vector<des::EventId> ids(1000);
  for (auto _ : state) {
    sim.reset();
    for (int i = 0; i < 1000; ++i) {
      ids[static_cast<std::size_t>(i)] = sim.schedule_at(
          static_cast<double>(1000000 + i), [] {});
    }
    for (int i = 0; i < 1000; i += 2) {
      sim.cancel(ids[static_cast<std::size_t>(i)]);
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleCancelPop);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  double acc = 0.0;
  for (auto _ : state) acc += rng.uniform();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngUniform);

void BM_BuildQft32(benchmark::State& state) {
  for (auto _ : state) {
    const Circuit qc = gen::make_qft(32);
    benchmark::DoNotOptimize(qc.num_gates());
  }
}
BENCHMARK(BM_BuildQft32);

void BM_DependencyDagQft32(benchmark::State& state) {
  const Circuit qc = gen::make_qft(32);
  for (auto _ : state) {
    const DependencyDag dag(qc, DependencyDag::Mode::CommutationAware);
    benchmark::DoNotOptimize(dag.critical_path_length());
  }
}
BENCHMARK(BM_DependencyDagQft32);

void BM_PartitionQaoaR8_32(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const partition::Graph graph = interaction_graph(qc);
  for (auto _ : state) {
    const auto result = partition::multilevel_partition(graph, 2);
    benchmark::DoNotOptimize(result.cut);
  }
}
BENCHMARK(BM_PartitionQaoaR8_32);

void BM_TeleportGadgetExact(benchmark::State& state) {
  for (auto _ : state) {
    const double f = noise::teleported_cnot_avg_fidelity(0.99);
    benchmark::DoNotOptimize(f);
  }
}
// A 1 ms kernel whose single-run wall time varies by more than the gate's
// 25% on a shared host: it is gated on the median of five repetitions.
BENCHMARK(BM_TeleportGadgetExact)->Repetitions(5)->ReportAggregatesOnly();

void BM_TeleportModelEval(benchmark::State& state) {
  const noise::TeleportFidelityModel model{noise::TeleportNoiseParams{}};
  double f = 0.5;
  for (auto _ : state) {
    f = 0.25 + 0.75 * model.eval(0.25 + 0.5 * (f > 0.6));
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_TeleportModelEval);

void BM_EngineRunQaoaR8_32(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = runtime::partition_circuit(qc, 2);
  const runtime::ArchConfig config;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    // A fresh workspace per trial: the one-shot cost, setup included.
    runtime::RunContext ctx;
    benchmark::DoNotOptimize(
        ctx.execute(qc, part.assignment, config,
                    runtime::DesignKind::AsyncBuf, ++seed)
            .depth);
  }
}
BENCHMARK(BM_EngineRunQaoaR8_32);

// Steady-state Monte-Carlo trial: one RunContext reused across trials, as
// each run_design worker drives it. After the warmup trials every buffer is
// at its high-water mark and the setup cache is hot, so a trial performs
// zero heap allocation (the allocs_per_op counter).
void run_steady_state_trials(benchmark::State& state, const Circuit& qc,
                             const std::vector<int>& assignment,
                             const runtime::ArchConfig& config) {
  noise::TeleportNoiseParams tele;
  tele.local_2q_fidelity = config.fid.local_cnot;
  tele.local_1q_fidelity = config.fid.one_qubit;
  tele.readout_fidelity = config.fid.measurement;
  const noise::TeleportFidelityModel model(tele);
  runtime::RunContext ctx;
  constexpr std::uint64_t kSeeds = 16;
  for (std::uint64_t s = 0; s < kSeeds; ++s) {
    ctx.execute(qc, assignment, config, runtime::DesignKind::AsyncBuf,
                1000 + s, &model);
  }
  const std::uint64_t allocs0 = allocs_since(0);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const auto result =
        ctx.execute(qc, assignment, config, runtime::DesignKind::AsyncBuf,
                    1000 + (seed++ % kSeeds), &model);
    benchmark::DoNotOptimize(result.depth);
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs_since(allocs0)) /
      static_cast<double>(state.iterations()));
}

void BM_RunContextTrialSteadyState(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = runtime::partition_circuit(qc, 2);
  run_steady_state_trials(state, qc, part.assignment, runtime::ArchConfig{});
}
BENCHMARK(BM_RunContextTrialSteadyState);

// Same trial loop with ArrivalTrace recording off (the Monte-Carlo sweep
// configuration): the per-arrival log is skipped entirely, so the trial
// stays allocation-free even on arrival-heavy configs whose trace growth
// would otherwise occasionally reallocate.
void BM_RunContextTrialTraceOff(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = runtime::partition_circuit(qc, 2);
  runtime::ArchConfig config;
  config.record_arrival_trace = false;
  run_steady_state_trials(state, qc, part.assignment, config);
}
BENCHMARK(BM_RunContextTrialTraceOff);

// Same trial loop with the observability layer compiled in but disabled
// (config.observe == nullptr, the default): every obs hook must reduce to
// a branch on a null pointer, so the trial stays allocation-free and within
// noise of the un-instrumented engine. Gated in ci/bench_baseline.json.
void BM_RunContextTrialObserverOff(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = runtime::partition_circuit(qc, 2);
  runtime::ArchConfig config;
  config.record_arrival_trace = false;
  config.observe = nullptr;  // explicit: the observer-off contract
  run_steady_state_trials(state, qc, part.assignment, config);
}
BENCHMARK(BM_RunContextTrialObserverOff);

// The same steady-state trial on a chain(8) topology with composed
// delivery and no scenario: routing, per-edge link parameters and the
// config check all come from the setup cache or stay allocation-free, so a
// topology trial allocates nothing either.
void BM_RunContextTrialChain8(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const net::Topology topo = net::Topology::chain(8);
  const auto part = runtime::partition_circuit(qc, topo);
  runtime::ArchConfig config;
  config.num_nodes = 8;
  config.record_arrival_trace = false;
  config.set_topology(topo);
  run_steady_state_trials(state, qc, part.assignment, config);
}
BENCHMARK(BM_RunContextTrialChain8);

// A Buffered, asynchronous 16-pair generation service whose pool stays
// full settles one long parked span per iteration, as a saturated link of
// a chain trial does: whole rounds are counted in bulk. Items are attempt
// windows; the span is 4096 rounds, and a settle allocates nothing.
void BM_GenerationServiceParkedSettle(benchmark::State& state) {
  des::Simulator sim;
  Rng rng(7);
  ent::LinkParams lp;
  lp.num_comm_pairs = 16;
  lp.buffer_capacity = 2;
  lp.p_succ = 0.15;  // the success share of a saturated chain(8) trial
  lp.schedule = ent::AttemptSchedule::Asynchronous;
  lp.async_subgroups = 4;
  lp.record_trace = false;
  ent::GenerationService svc(sim, lp, rng, ent::ServiceMode::Buffered);
  svc.pre_fill_buffer();
  svc.start();  // the pool is full: the service parks at once
  const double span = 4096.0 * lp.cycle_time;
  // One warm-up settle: the event pool reaches its high-water mark.
  sim.run_until(sim.now() + span);
  benchmark::DoNotOptimize(svc.take(ent::ConsumeOrder::FreshestFirst));
  const std::size_t windows0 = svc.attempts();
  const std::uint64_t allocs0 = allocs_since(0);
  for (auto _ : state) {
    // The pop frees a slot; the next success refills the pool, and the
    // service stays parked for the rest of the span.
    sim.run_until(sim.now() + span);
    benchmark::DoNotOptimize(svc.take(ent::ConsumeOrder::FreshestFirst));
  }
  const std::uint64_t allocs = allocs_since(allocs0);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(svc.attempts() - windows0));
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_GenerationServiceParkedSettle);

// End-to-end trial throughput of the experiment driver (one worker): the
// number the fig5-fig8 sweeps and ablation benches are built from.
void BM_RunDesignTrialThroughput(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = runtime::partition_circuit(qc, 2);
  const runtime::ArchConfig config;
  const int runs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto agg =
        runtime::run_design(qc, part.assignment, config,
                            runtime::DesignKind::AsyncBuf, runs,
                            /*base_seed=*/1000, /*threads=*/1);
    benchmark::DoNotOptimize(agg.depth.mean());
  }
  state.SetItemsProcessed(state.iterations() * runs);
  state.SetLabel("trials/s");
}
BENCHMARK(BM_RunDesignTrialThroughput)->Arg(64)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Serial vs parallel Monte-Carlo experiment engine. Run both and compare
// wall time per iteration: the parallel variant fans the same seeds across
// a thread pool (runtime::run_design threads=0) and must produce identical
// statistics, so any wall-clock gap is pure speedup.
void BM_RunDesignSerial(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = runtime::partition_circuit(qc, 2);
  const runtime::ArchConfig config;
  const int runs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto agg =
        runtime::run_design(qc, part.assignment, config,
                            runtime::DesignKind::AsyncBuf, runs,
                            /*base_seed=*/1000, /*threads=*/1);
    benchmark::DoNotOptimize(agg.depth.mean());
  }
  state.SetItemsProcessed(state.iterations() * runs);
  state.SetLabel("1 thread");
}
BENCHMARK(BM_RunDesignSerial)->Arg(16)->Arg(32)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_RunDesignParallel(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = runtime::partition_circuit(qc, 2);
  const runtime::ArchConfig config;
  const int runs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto agg =
        runtime::run_design(qc, part.assignment, config,
                            runtime::DesignKind::AsyncBuf, runs,
                            /*base_seed=*/1000, /*threads=*/0);
    benchmark::DoNotOptimize(agg.depth.mean());
  }
  state.SetItemsProcessed(state.iterations() * runs);
  // parallel_for clamps workers to the run count.
  const std::size_t workers = std::min(ThreadPool::hardware_threads(),
                                       static_cast<std::size_t>(runs));
  state.SetLabel(std::to_string(workers) + " threads");
}
BENCHMARK(BM_RunDesignParallel)->Arg(16)->Arg(32)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_RunDesignMatrixAllDesigns(benchmark::State& state) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = runtime::partition_circuit(qc, 2);
  std::vector<runtime::DesignPoint> points;
  for (const auto design : runtime::distributed_designs()) {
    points.push_back({design, runtime::ArchConfig{}});
  }
  for (auto _ : state) {
    const auto aggregates =
        runtime::run_design_matrix(qc, part.assignment, points, 8);
    benchmark::DoNotOptimize(aggregates.front().depth.mean());
  }
  state.SetItemsProcessed(state.iterations() * points.size() * 8);
}
BENCHMARK(BM_RunDesignMatrixAllDesigns)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DensityMatrixCnot6Qubit(benchmark::State& state) {
  qsim::DensityMatrix rho(6);
  const auto u = qsim::cnot();
  for (auto _ : state) {
    rho.apply_2q(u, 2, 4);
    benchmark::DoNotOptimize(rho.trace());
  }
}
BENCHMARK(BM_DensityMatrixCnot6Qubit);

void BM_DensityMatrixHadamard8Qubit(benchmark::State& state) {
  qsim::DensityMatrix rho(8);
  const auto u = qsim::hadamard();
  for (auto _ : state) {
    rho.apply_1q(u, 3);
    benchmark::DoNotOptimize(rho.trace());
  }
}
BENCHMARK(BM_DensityMatrixHadamard8Qubit);

/// Console output plus capture of every run for the JSON report.
class JsonExportReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonExportReporter(bench::BenchReport& report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      // Note: a kernel is exported from its single run, or, when it is
      // repeated, from the median of its repetitions under its plain name;
      // the error/skip field is not consulted (its name changed across
      // google-benchmark versions).
      const bool repeated = run.run_type == Run::RT_Aggregate;
      if (repeated && run.aggregate_name != "median") continue;
      benchmark::BenchmarkName name = run.run_name;
      name.repetitions.clear();
      bench::KernelResult k;
      k.name = name.str();
      k.iterations = static_cast<double>(run.iterations);
      if (run.iterations > 0) {
        k.ns_per_op = run.real_accumulated_time /
                      static_cast<double>(run.iterations) * 1e9;
      }
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) k.items_per_s = it->second;
      for (const auto& [counter_name, counter] : run.counters) {
        if (counter_name == "items_per_second") continue;
        k.counters.emplace_back(counter_name,
                                static_cast<double>(counter.value));
      }
      k.label = run.report_label;
      report_.add(std::move(k));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::BenchReport report("perf_micro");
  JsonExportReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  report.write();
  benchmark::Shutdown();
  return 0;
}
