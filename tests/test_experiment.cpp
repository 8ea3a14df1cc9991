/// Unit tests for the experiment driver: thread-pool mechanics, and the
/// determinism contract that parallel Monte-Carlo execution is bit-identical
/// to the serial path for every thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "expect_identical.hpp"
#include "gen/benchmarks.hpp"
#include "runtime/engine.hpp"
#include "runtime/experiment.hpp"

namespace dqcsim::runtime {
namespace {

// ---------------------------------------------------------- thread pool ----

TEST(ThreadPool, RunsEverySubmittedJob) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
  }
}

TEST(ThreadPool, DestructorDrainsPendingJobs) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // ~ThreadPool joins after the queue drains
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(16,
                                 [](std::size_t i) {
                                   if (i == 7) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool must still be usable after an exception.
  std::atomic<int> counter{0};
  pool.parallel_for(8, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPool, FreeParallelForHandlesEdgeCases) {
  std::atomic<int> counter{0};
  parallel_for(0, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 0);
  parallel_for(1, [&](std::size_t) { counter.fetch_add(1); }, 8);
  EXPECT_EQ(counter.load(), 1);
  parallel_for(10, [&](std::size_t) { counter.fetch_add(1); }, 1);
  EXPECT_EQ(counter.load(), 11);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

// ----------------------------------------------------------- determinism ----

using test_support::expect_identical;

TEST(ExperimentDeterminism, ParallelRunDesignIsBitIdenticalToSerial) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = partition_circuit(qc, 2);
  const ArchConfig config;
  constexpr int kRuns = 16;
  constexpr std::uint64_t kSeed = 1000;

  for (const DesignKind design : distributed_designs()) {
    const AggregateResult serial = run_design(qc, part.assignment, config,
                                              design, kRuns, kSeed,
                                              /*threads=*/1);
    for (const int threads : {0, 2, 4, 8}) {
      SCOPED_TRACE(design_name(design) + " @ " + std::to_string(threads) +
                   " threads");
      const AggregateResult parallel = run_design(
          qc, part.assignment, config, design, kRuns, kSeed, threads);
      expect_identical(serial, parallel);
    }
  }
}

TEST(ExperimentDeterminism, RepeatedParallelRunsAgree) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R4_32);
  const auto part = partition_circuit(qc, 2);
  const AggregateResult first = run_design(qc, part.assignment, {},
                                           DesignKind::AsyncBuf, 8, 42, 4);
  const AggregateResult second = run_design(qc, part.assignment, {},
                                            DesignKind::AsyncBuf, 8, 42, 4);
  expect_identical(first, second);
}

TEST(ExperimentDeterminism, FusedLocalGatesAreBitIdenticalToUnfused) {
  // The engine's 1q-chain fusion (ArchConfig::fuse_local_gates) elides
  // scheduling events but must leave every statistic bit-identical: chain
  // members have no external observers between head start and tail
  // completion, and the completion instant left-folds latencies exactly as
  // sequential scheduling would. TLIM is the chain-rich workload (rz/rx
  // runs per wire); QAOA and QFT cover the chain-free shapes.
  for (const auto id : {gen::BenchmarkId::TLIM_32, gen::BenchmarkId::QAOA_R8_32,
                        gen::BenchmarkId::QFT_32}) {
    const Circuit qc = gen::make_benchmark(id);
    const auto part = partition_circuit(qc, 2);
    for (const DesignKind design : all_designs()) {
      SCOPED_TRACE(gen::benchmark_name(id) + " / " + design_name(design));
      ArchConfig fused, unfused;
      fused.fuse_local_gates = true;
      unfused.fuse_local_gates = false;
      const AggregateResult a =
          run_design(qc, part.assignment, fused, design, 6, 1000, 1);
      AggregateResult b =
          run_design(qc, part.assignment, unfused, design, 6, 1000, 1);
      // Eliding events is the point of fusion: it may only lower the event
      // count. Every other statistic must match bit for bit.
      EXPECT_LE(a.events.mean(), b.events.mean());
      b.events = a.events;
      expect_identical(a, b);
    }
  }
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.depth, b.depth);
  EXPECT_EQ(a.fidelity, b.fidelity);
  EXPECT_EQ(a.fidelity_local, b.fidelity_local);
  EXPECT_EQ(a.fidelity_remote, b.fidelity_remote);
  EXPECT_EQ(a.fidelity_idling, b.fidelity_idling);
  EXPECT_EQ(a.epr_attempts, b.epr_attempts);
  EXPECT_EQ(a.epr_successes, b.epr_successes);
  EXPECT_EQ(a.epr_consumed, b.epr_consumed);
  EXPECT_EQ(a.epr_wasted, b.epr_wasted);
  EXPECT_EQ(a.epr_expired, b.epr_expired);
  EXPECT_EQ(a.avg_pair_age, b.avg_pair_age);
  EXPECT_EQ(a.avg_remote_wait, b.avg_remote_wait);
  EXPECT_EQ(a.segments_asap, b.segments_asap);
  EXPECT_EQ(a.segments_alap, b.segments_alap);
  EXPECT_EQ(a.segments_original, b.segments_original);
  EXPECT_EQ(a.purification_rounds, b.purification_rounds);
  EXPECT_EQ(a.purification_failures, b.purification_failures);
}

TEST(RunContextReuse, MatchesFreshEngineAcrossSetupChanges) {
  // One RunContext executing a heterogeneous sweep — design switches,
  // config switches that invalidate the cached setup (segment size, fusion,
  // remote implementation) and ones that do not (cutoff, purification) —
  // must reproduce a fresh one-shot engine bit for bit on every trial.
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = partition_circuit(qc, 2);

  std::vector<std::pair<DesignKind, ArchConfig>> setups;
  for (const DesignKind design : distributed_designs()) {
    setups.push_back({design, ArchConfig{}});
  }
  ArchConfig cutoff;
  cutoff.buffer_cutoff = 25.0;
  setups.push_back({DesignKind::AsyncBuf, cutoff});
  ArchConfig purify;
  purify.purify_on_consume = true;
  setups.push_back({DesignKind::AsyncBuf, purify});
  ArchConfig unfused;
  unfused.fuse_local_gates = false;
  setups.push_back({DesignKind::AsyncBuf, unfused});
  ArchConfig state_tp;
  state_tp.remote_impl = RemoteImpl::StateTeleport;
  setups.push_back({DesignKind::AsyncBuf, state_tp});
  ArchConfig wide_segments;
  wide_segments.segment_size = 2;
  setups.push_back({DesignKind::AdaptBuf, wide_segments});
  setups.push_back({DesignKind::IdealMono, ArchConfig{}});

  RunContext reused;
  // Two passes so every setup is revisited after the cache was retargeted.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < setups.size(); ++i) {
      SCOPED_TRACE("pass " + std::to_string(pass) + " setup " +
                   std::to_string(i));
      const auto& [design, config] = setups[i];
      const std::vector<int> assignment =
          design == DesignKind::IdealMono ? std::vector<int>{}
                                          : part.assignment;
      const std::uint64_t seed = 100 + i;
      const RunResult fresh =
          RunContext().execute(qc, assignment, config, design, seed);
      const RunResult ctx = reused.execute(qc, assignment, config, design,
                                           seed);
      expect_identical(ctx, fresh);
    }
  }
}

TEST(RunContextReuse, RepeatedSameSeedTrialsAreIdentical) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::TLIM_32);
  const auto part = partition_circuit(qc, 2);
  RunContext ctx;
  const RunResult first =
      ctx.execute(qc, part.assignment, {}, DesignKind::SyncBuf, 9);
  for (int i = 0; i < 3; ++i) {
    ctx.execute(qc, part.assignment, {}, DesignKind::SyncBuf, 9 + i + 1);
    const RunResult again =
        ctx.execute(qc, part.assignment, {}, DesignKind::SyncBuf, 9);
    expect_identical(again, first);
  }
}

TEST(RunContextReuse, ValidatesInputsOnEveryCall) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R4_32);
  const auto part = partition_circuit(qc, 2);
  RunContext ctx;
  ctx.execute(qc, part.assignment, {}, DesignKind::AsyncBuf, 1);
  EXPECT_THROW(
      ctx.execute(qc, {0, 1}, {}, DesignKind::AsyncBuf, 1),
      PreconditionError);
  std::vector<int> bad = part.assignment;
  bad.front() = 7;
  EXPECT_THROW(ctx.execute(qc, bad, {}, DesignKind::AsyncBuf, 1),
               PreconditionError);
  // The context stays usable after a rejected call.
  ctx.execute(qc, part.assignment, {}, DesignKind::AsyncBuf, 1);
}

TEST(ExperimentDeterminism, DifferentBaseSeedsDiffer) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = partition_circuit(qc, 2);
  const auto a = run_design(qc, part.assignment, {}, DesignKind::AsyncBuf, 8,
                            1000, 4);
  const auto b = run_design(qc, part.assignment, {}, DesignKind::AsyncBuf, 8,
                            2000, 4);
  EXPECT_NE(a.depth.mean(), b.depth.mean());
}

// ---------------------------------------------------------- matrix sweeps ----

TEST(RunDesignMatrix, MatchesIndividualRunDesignCalls) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R8_32);
  const auto part = partition_circuit(qc, 2);
  constexpr int kRuns = 6;

  std::vector<DesignPoint> points;
  for (const DesignKind design : distributed_designs()) {
    points.push_back({design, ArchConfig{}});
  }
  ArchConfig wide;
  wide.comm_per_node = 20;
  wide.buffer_per_node = 20;
  points.push_back({DesignKind::AsyncBuf, wide});

  const auto matrix =
      run_design_matrix(qc, part.assignment, points, kRuns, 1000, 4);
  ASSERT_EQ(matrix.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    const AggregateResult direct =
        run_design(qc, part.assignment, points[i].config, points[i].design,
                   kRuns, 1000, /*threads=*/1);
    expect_identical(matrix[i], direct);
  }
}

TEST(RunDesignMatrix, EmptyPointListYieldsEmptyResult) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::QAOA_R4_32);
  const auto part = partition_circuit(qc, 2);
  EXPECT_TRUE(run_design_matrix(qc, part.assignment, {}, 4).empty());
}

TEST(RunDesignMatrix, ThreadCountNeverChangesResults) {
  const Circuit qc = gen::make_benchmark(gen::BenchmarkId::TLIM_32);
  const auto part = partition_circuit(qc, 2);
  const std::vector<DesignPoint> points = {{DesignKind::SyncBuf, {}},
                                           {DesignKind::InitBuf, {}}};
  const auto serial = run_design_matrix(qc, part.assignment, points, 5, 7, 1);
  const auto parallel =
      run_design_matrix(qc, part.assignment, points, 5, 7, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], parallel[i]);
  }
}

}  // namespace
}  // namespace dqcsim::runtime
