/// Unit tests for the entanglement layer: link parameters, buffer pool,
/// generation service (sync/async, buffered/on-demand), arrival traces.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "des/simulator.hpp"
#include "ent/buffer_pool.hpp"
#include "ent/generation_service.hpp"
#include "ent/link_params.hpp"
#include "ent/trace.hpp"

namespace dqcsim::ent {
namespace {

LinkParams paper_link() {
  LinkParams link;  // defaults match the paper's Table II configuration
  return link;
}

// ------------------------------------------------------------ LinkParams ----

TEST(LinkParams, DefaultsAreValid) { EXPECT_NO_THROW(paper_link().validate()); }

TEST(LinkParams, ValidateCatchesEveryBadField) {
  const auto expect_bad = [](auto mutate) {
    LinkParams link;
    mutate(link);
    EXPECT_THROW(link.validate(), ConfigError);
  };
  expect_bad([](LinkParams& l) { l.num_comm_pairs = 0; });
  expect_bad([](LinkParams& l) { l.buffer_capacity = -1; });
  expect_bad([](LinkParams& l) { l.p_succ = 0.0; });
  expect_bad([](LinkParams& l) { l.p_succ = 1.5; });
  expect_bad([](LinkParams& l) { l.cycle_time = 0.0; });
  expect_bad([](LinkParams& l) { l.swap_latency = -1.0; });
  expect_bad([](LinkParams& l) { l.f0 = 0.1; });
  expect_bad([](LinkParams& l) { l.kappa = -0.1; });
  expect_bad([](LinkParams& l) { l.cutoff = 0.0; });
  expect_bad([](LinkParams& l) { l.async_subgroups = 0; });
}

// ------------------------------------------------------------ BufferPool ----

TEST(BufferPool, DepositAndPopFifo) {
  BufferPool pool(4, 0.99, 0.002, 1e9);
  EXPECT_TRUE(pool.deposit(1.0));
  EXPECT_TRUE(pool.deposit(2.0));
  const auto pair = pool.pop_oldest(3.0);
  ASSERT_TRUE(pair.has_value());
  EXPECT_DOUBLE_EQ(pair->deposited, 1.0);
  EXPECT_EQ(pool.size(3.0), 1u);
}

TEST(BufferPool, PopFreshestTakesNewest) {
  BufferPool pool(4, 0.99, 0.002, 1e9);
  pool.deposit(1.0);
  pool.deposit(2.0);
  pool.deposit(5.0);
  const auto pair = pool.pop_freshest(6.0);
  ASSERT_TRUE(pair.has_value());
  EXPECT_DOUBLE_EQ(pair->deposited, 5.0);
}

TEST(BufferPool, PopViaOrderEnum) {
  BufferPool pool(4, 0.99, 0.002, 1e9);
  pool.deposit(1.0);
  pool.deposit(2.0);
  EXPECT_DOUBLE_EQ(pool.pop(3.0, ConsumeOrder::FreshestFirst)->deposited, 2.0);
  EXPECT_DOUBLE_EQ(pool.pop(3.0, ConsumeOrder::OldestFirst)->deposited, 1.0);
}

TEST(BufferPool, CapacityRejectsOverflow) {
  BufferPool pool(2, 0.99, 0.002, 1e9);
  EXPECT_TRUE(pool.deposit(1.0));
  EXPECT_TRUE(pool.deposit(1.0));
  EXPECT_FALSE(pool.deposit(1.0));
  EXPECT_EQ(pool.total_rejected(), 1u);
  EXPECT_TRUE(pool.full(1.0));
}

TEST(BufferPool, PopOnEmptyReturnsNullopt) {
  BufferPool pool(2, 0.99, 0.002, 1e9);
  EXPECT_FALSE(pool.pop_oldest(0.0).has_value());
  EXPECT_FALSE(pool.pop_freshest(0.0).has_value());
}

TEST(BufferPool, CutoffExpiresOldPairs) {
  BufferPool pool(4, 0.99, 0.002, /*cutoff=*/10.0);
  pool.deposit(0.0);
  pool.deposit(5.0);
  EXPECT_EQ(pool.size(9.0), 2u);
  EXPECT_EQ(pool.size(11.0), 1u);  // the t=0 pair exceeded the cutoff
  EXPECT_EQ(pool.total_expired(), 1u);
  const auto pair = pool.pop_oldest(12.0);
  ASSERT_TRUE(pair.has_value());
  EXPECT_DOUBLE_EQ(pair->deposited, 5.0);
}

TEST(BufferPool, ExpiryFreesCapacity) {
  BufferPool pool(1, 0.99, 0.002, 10.0);
  pool.deposit(0.0);
  EXPECT_FALSE(pool.deposit(5.0));
  EXPECT_TRUE(pool.deposit(20.0));  // the old pair expired
}

TEST(BufferPool, CountersAreConsistent) {
  BufferPool pool(2, 0.99, 0.002, 10.0);
  pool.deposit(0.0);
  pool.deposit(1.0);
  pool.pop_oldest(2.0);
  pool.deposit(15.0);  // expires the t=1 pair on access
  EXPECT_EQ(pool.total_deposited(), 3u);
  EXPECT_EQ(pool.total_consumed(), 1u);
  EXPECT_EQ(pool.total_expired(), 1u);
  EXPECT_EQ(pool.raw_size(), 1u);
}

TEST(BufferPool, FidelityAtAgeFollowsWernerDecay) {
  BufferPool pool(2, 0.99, 0.002, 1e9);
  EXPECT_DOUBLE_EQ(pool.fidelity_at_age(0.0), 0.99);
  const double decay = std::exp(-2 * 0.002 * 25.0);
  const double expected = 0.99 * decay + (1 - decay) / 4;
  EXPECT_DOUBLE_EQ(pool.fidelity_at_age(25.0), expected);
  EXPECT_THROW(pool.fidelity_at_age(-1.0), PreconditionError);
}

// ----------------------------------------------------- GenerationService ----

TEST(GenerationService, SyncCompletionsLandOnCycleGrid) {
  des::Simulator sim;
  Rng rng(1);
  LinkParams link = paper_link();
  link.p_succ = 1.0;  // every window succeeds
  link.swap_latency = 0.0;
  GenerationService service(sim, link, rng, ServiceMode::Buffered);
  service.start();
  sim.run_until(35.0);
  // Completions at t = 10, 20, 30 with 10 pairs each, capacity 10:
  // deposits beyond capacity are wasted.
  for (des::SimTime t : service.trace().arrivals()) {
    EXPECT_NEAR(std::fmod(t, link.cycle_time), 0.0, 1e-9);
  }
  EXPECT_EQ(service.buffer().size(35.0), 10u);
  EXPECT_GT(service.wasted_buffer_full(), 0u);
}

TEST(GenerationService, TraceOptOutSkipsRecordingOnly) {
  // Same physics with record_trace off: deposits, counters and buffer
  // occupancy are untouched; only the arrival log stays empty.
  LinkParams link = paper_link();
  link.p_succ = 1.0;

  des::Simulator sim_on;
  Rng rng_on(1);
  GenerationService on(sim_on, link, rng_on, ServiceMode::Buffered);
  on.start();
  sim_on.run_until(35.0);

  link.record_trace = false;
  des::Simulator sim_off;
  Rng rng_off(1);
  GenerationService off(sim_off, link, rng_off, ServiceMode::Buffered);
  off.start();
  sim_off.run_until(35.0);

  EXPECT_GT(on.trace().count(), 0u);
  EXPECT_EQ(off.trace().count(), 0u);
  EXPECT_EQ(on.attempts(), off.attempts());
  EXPECT_EQ(on.successes(), off.successes());
  EXPECT_EQ(on.wasted_buffer_full(), off.wasted_buffer_full());
  EXPECT_EQ(on.buffer().size(35.0), off.buffer().size(35.0));
}

TEST(GenerationService, TraceOptOutAppliesOnDemandToo) {
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  link.record_trace = false;
  des::Simulator sim;
  Rng rng(1);
  GenerationService service(sim, link, rng, ServiceMode::OnDemand);
  service.start();
  sim.run_until(25.0);
  EXPECT_GT(service.successes(), 0u);
  EXPECT_EQ(service.trace().count(), 0u);
}

TEST(GenerationService, AsyncOffsetsAreStaggered) {
  des::Simulator sim;
  Rng rng(2);
  LinkParams link = paper_link();
  link.schedule = AttemptSchedule::Asynchronous;
  link.async_subgroups = 10;
  GenerationService service(sim, link, rng, ServiceMode::Buffered);
  // Pair p belongs to subgroup p%10 with offset p%10 * cycle/10.
  EXPECT_DOUBLE_EQ(service.offset_of(0), 0.0);
  EXPECT_DOUBLE_EQ(service.offset_of(3), 3.0);
  EXPECT_DOUBLE_EQ(service.offset_of(9), 9.0);
}

TEST(GenerationService, SubgroupCountControlsSpacing) {
  des::Simulator sim;
  Rng rng(2);
  LinkParams link = paper_link();
  link.schedule = AttemptSchedule::Asynchronous;
  link.async_subgroups = 4;  // the paper's Fig. 3 example
  GenerationService service(sim, link, rng, ServiceMode::Buffered);
  EXPECT_DOUBLE_EQ(service.offset_of(0), 0.0);
  EXPECT_DOUBLE_EQ(service.offset_of(1), 2.5);
  EXPECT_DOUBLE_EQ(service.offset_of(5), 2.5);  // wraps by subgroup
  EXPECT_DOUBLE_EQ(service.offset_of(3), 7.5);
}

TEST(GenerationService, SyncOffsetsAllZero) {
  des::Simulator sim;
  Rng rng(2);
  GenerationService service(sim, paper_link(), rng, ServiceMode::Buffered);
  for (int p = 0; p < 10; ++p) EXPECT_DOUBLE_EQ(service.offset_of(p), 0.0);
}

TEST(GenerationService, SuccessRateMatchesPSucc) {
  des::Simulator sim;
  Rng rng(3);
  LinkParams link = paper_link();
  link.buffer_capacity = 1000000;  // never reject
  GenerationService service(sim, link, rng, ServiceMode::Buffered);
  service.start();
  sim.run_until(10000.0);
  const double rate = static_cast<double>(service.successes()) /
                      static_cast<double>(service.attempts());
  EXPECT_NEAR(rate, link.p_succ, 0.02);
  // Throughput: num_pairs * p_succ / cycle pairs per unit time.
  const double expected_pairs = 10 * 0.4 / 10.0 * 10000.0;
  EXPECT_NEAR(static_cast<double>(service.successes()), expected_pairs,
              expected_pairs * 0.1);
}

TEST(GenerationService, BufferedArrivalsDelayedBySwap) {
  des::Simulator sim;
  Rng rng(4);
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  link.swap_latency = 1.0;
  GenerationService service(sim, link, rng, ServiceMode::Buffered);
  service.start();
  sim.run_until(12.0);
  ASSERT_FALSE(service.trace().arrivals().empty());
  // Completion at 10, deposit at 11.
  EXPECT_DOUBLE_EQ(service.trace().arrivals().front(), 11.0);
}

TEST(GenerationService, OnDemandUnconsumedPairsAreWasted) {
  des::Simulator sim;
  Rng rng(5);
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  GenerationService service(sim, link, rng, ServiceMode::OnDemand);
  service.set_arrival_handler([](des::SimTime) { return false; });
  service.start();
  sim.run_until(20.0);
  EXPECT_EQ(service.wasted_unconsumed(), service.successes());
  EXPECT_GT(service.successes(), 0u);
}

TEST(GenerationService, OnDemandConsumedPairsAreNotWasted) {
  des::Simulator sim;
  Rng rng(6);
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  GenerationService service(sim, link, rng, ServiceMode::OnDemand);
  int consumed = 0;
  service.set_arrival_handler([&](des::SimTime) {
    ++consumed;
    return true;
  });
  service.start();
  sim.run_until(20.0);
  EXPECT_EQ(service.wasted_unconsumed(), 0u);
  EXPECT_EQ(static_cast<std::size_t>(consumed), service.successes());
}

TEST(GenerationService, PreFillTopsUpBuffer) {
  des::Simulator sim;
  Rng rng(7);
  GenerationService service(sim, paper_link(), rng, ServiceMode::Buffered);
  service.pre_fill_buffer();
  EXPECT_EQ(service.buffer().size(0.0), 10u);
}

TEST(GenerationService, PreFillRequiresBufferedMode) {
  des::Simulator sim;
  Rng rng(8);
  GenerationService service(sim, paper_link(), rng, ServiceMode::OnDemand);
  EXPECT_THROW(service.pre_fill_buffer(), PreconditionError);
}

TEST(GenerationService, StopCeasesGeneration) {
  des::Simulator sim;
  Rng rng(9);
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  GenerationService service(sim, link, rng, ServiceMode::Buffered);
  service.start();
  sim.run_until(15.0);
  const std::size_t attempts_then = service.attempts();
  service.stop();
  sim.run(); // drain remaining events
  EXPECT_EQ(service.attempts(), attempts_then);
}

TEST(GenerationService, StartIsIdempotent) {
  des::Simulator sim;
  Rng rng(10);
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  GenerationService service(sim, link, rng, ServiceMode::Buffered);
  service.start();
  service.start();
  sim.run_until(10.5);
  // Exactly one completion batch (10 pairs), not two.
  EXPECT_EQ(service.attempts(), 10u);
}

TEST(GenerationService, DeterministicForFixedSeed) {
  const auto run_once = [] {
    des::Simulator sim;
    Rng rng(77);
    GenerationService service(sim, paper_link(), rng, ServiceMode::Buffered);
    service.start();
    sim.run_until(500.0);
    return service.trace().arrivals();
  };
  EXPECT_EQ(run_once(), run_once());
}

// --------------------------------------------------------- ArrivalTrace ----

TEST(ArrivalTrace, BinsArrivals) {
  ArrivalTrace trace;
  trace.record(0.5);
  trace.record(1.5);
  trace.record(1.7);
  trace.record(9.0);
  const auto counts = trace.binned_counts(1.0, 10.0);
  ASSERT_EQ(counts.size(), 10u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[9], 1u);
}

TEST(ArrivalTrace, SyncIsBurstierThanAsync) {
  // The quantitative heart of the paper's Fig. 3: identical rates, very
  // different temporal patterns.
  const auto burstiness_of = [](AttemptSchedule schedule) {
    des::Simulator sim;
    Rng rng(42);
    LinkParams link;
    link.schedule = schedule;
    link.buffer_capacity = 1000000;
    link.swap_latency = 0.0;
    GenerationService service(sim, link, rng, ServiceMode::Buffered);
    service.start();
    sim.run_until(2000.0);
    return service.trace().burstiness(1.0, 2000.0);
  };
  const double sync = burstiness_of(AttemptSchedule::Synchronous);
  const double async = burstiness_of(AttemptSchedule::Asynchronous);
  EXPECT_GT(sync, 2.0 * async);
}

TEST(GenerationService, ResetReplaysIdentically) {
  // A reset service on a reset simulator must reproduce a fresh service's
  // event stream exactly — the contract the reusable RunContext rests on.
  des::Simulator sim;
  Rng rng(7);
  const LinkParams link = paper_link();
  const auto run_once = [&](GenerationService& service) {
    service.start();
    sim.run_until(200.0);
    service.stop();
    return std::tuple{service.attempts(), service.successes(),
                      service.trace().count(),
                      service.buffer().raw_size()};
  };
  GenerationService service(sim, link, rng, ServiceMode::Buffered);
  const auto first = run_once(service);
  sim.reset();
  rng = Rng(7);
  service.reset(link, ServiceMode::Buffered);
  EXPECT_EQ(service.attempts(), 0u);
  EXPECT_EQ(service.trace().count(), 0u);
  EXPECT_EQ(service.buffer().raw_size(), 0u);
  EXPECT_EQ(run_once(service), first);
}

TEST(GenerationService, ResetCanSwitchModeAndParams) {
  des::Simulator sim;
  Rng rng(3);
  GenerationService service(sim, paper_link(), rng, ServiceMode::Buffered);
  service.start();
  sim.run_until(100.0);
  service.stop();
  sim.reset();
  LinkParams narrow = paper_link();
  narrow.buffer_capacity = 2;
  service.reset(narrow, ServiceMode::OnDemand);
  EXPECT_EQ(service.mode(), ServiceMode::OnDemand);
  EXPECT_EQ(service.buffer().capacity(), 2u);
  std::size_t offered = 0;
  service.set_arrival_handler([&offered](des::SimTime) {
    ++offered;
    return true;
  });
  service.start();
  sim.run_until(100.0);
  EXPECT_EQ(offered, service.successes());
  EXPECT_EQ(service.wasted_unconsumed(), 0u);
}

TEST(ArrivalTrace, RejectsBadBins) {
  ArrivalTrace trace;
  trace.record(1.0);
  EXPECT_THROW(trace.binned_counts(0.0, 10.0), PreconditionError);
  EXPECT_THROW(trace.binned_counts(1.0, 0.0), PreconditionError);
  EXPECT_THROW(trace.record(-1.0), PreconditionError);
}

TEST(ArrivalTrace, BurstinessZeroWhenEmpty) {
  ArrivalTrace trace;
  EXPECT_DOUBLE_EQ(trace.burstiness(1.0, 10.0), 0.0);
}

// ----------------------------------------------- degraded-mode primitives ----

TEST(BufferPool, FlushDropsEverythingAndReportsCount) {
  BufferPool pool(4, 0.99, 0.002, 1e9);
  pool.deposit(1.0);
  pool.deposit(2.0);
  pool.deposit(3.0);
  EXPECT_EQ(pool.flush(4.0), 3u);
  EXPECT_EQ(pool.size(4.0), 0u);
  EXPECT_FALSE(pool.pop_oldest(4.0).has_value());
  EXPECT_TRUE(pool.deposit(5.0));  // pool remains usable
  EXPECT_EQ(pool.flush(6.0), 1u);
}

TEST(GenerationService, MaxDeliveryGapTracksSuccessDroughts) {
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  link.num_comm_pairs = 1;
  link.buffer_capacity = 1;  // full buffer still counts as a success
  des::Simulator sim;
  Rng rng(1);
  GenerationService svc(sim, link, rng, ServiceMode::Buffered);
  EXPECT_DOUBLE_EQ(svc.max_delivery_gap(100.0), 0.0);  // not started
  svc.start();
  sim.run_until(95.0);
  // Every window succeeds: the widest gap is one cycle (start -> first).
  EXPECT_DOUBLE_EQ(svc.max_delivery_gap(sim.now()), link.cycle_time);

  // A service that never succeeds reports the whole span since start.
  LinkParams dead = link;
  dead.p_succ = 1e-12;
  des::Simulator sim2;
  Rng rng2(1);
  GenerationService never(sim2, dead, rng2, ServiceMode::Buffered);
  never.start();
  sim2.run_until(95.0);
  EXPECT_DOUBLE_EQ(never.max_delivery_gap(sim2.now()), sim2.now());
}

// ------------------------------------------- parking (event-sparse) rules ----

/// One pair that always succeeds into a one-slot buffer: completions at
/// 10, 20, 30, ..., deposits one time unit later. The pool fills at t = 11;
/// the deposit at 21 is already scheduled then and finds the pool full,
/// after which the service parks (window 30 on is parked).
LinkParams one_slot_link() {
  LinkParams link = paper_link();
  link.p_succ = 1.0;
  link.num_comm_pairs = 1;
  link.buffer_capacity = 1;
  link.swap_latency = 1.0;
  link.record_trace = false;
  return link;
}

TEST(GenerationService, ParkedDepositCountsOnceStrictlyPast) {
  des::Simulator sim;
  Rng rng(1);
  GenerationService service(sim, one_slot_link(), rng, ServiceMode::Buffered);
  service.start();
  sim.run_until(21.5);
  EXPECT_EQ(service.wasted_buffer_full(), 1u);  // the deposit at 21
  sim.run_until(31.0);
  // The parked deposit due at 31 is still in flight at 31 (a pop now
  // would come first) ...
  EXPECT_EQ(service.wasted_buffer_full(), 1u);
  EXPECT_EQ(service.successes(), 3u);
  sim.run_until(31.5);
  // ... and wasted once its instant has passed.
  EXPECT_EQ(service.wasted_buffer_full(), 2u);
  sim.run_until(1000.0);
  EXPECT_EQ(service.wasted_buffer_full(), 98u);
  EXPECT_LT(sim.executed_events(), 5u);  // parked: no per-window events
}

TEST(GenerationService, PopWakingAParkedServicePrecedesDepositsAtItsInstant) {
  des::Simulator sim;
  Rng rng(1);
  GenerationService service(sim, one_slot_link(), rng, ServiceMode::Buffered);
  std::vector<double> deposits;
  service.set_arrival_handler([&deposits](des::SimTime t) {
    deposits.push_back(t);
    return true;
  });
  // Pops at 31 (a parked deposit's instant) and at 35 (between deposits).
  std::vector<double> popped;
  for (const double t : {31.0, 35.0}) {
    sim.schedule_at(t, [&service, &popped] {
      if (auto pair = service.take(ConsumeOrder::FreshestFirst)) {
        popped.push_back(pair->deposited);
      }
    });
  }
  service.start();
  sim.run_until(40.0);
  // 11 lands; 21 finds the pool full; 31 lands after the pop at 31 took
  // the 11 pair; 35 takes the 31 pair, so 41 will land.
  EXPECT_EQ(popped, (std::vector<double>{11.0, 31.0}));
  EXPECT_EQ(deposits, (std::vector<double>{11.0, 31.0}));
  EXPECT_EQ(service.wasted_buffer_full(), 1u);
  EXPECT_EQ(service.buffer().size(40.0), 0u);
}

}  // namespace
}  // namespace dqcsim::ent
