/// Exactness of event-sparse generation against a per-window oracle.
///
/// ent::GenerationService evaluates attempt windows without giving each one
/// a simulator event (scan-ahead), and parks a full buffered pool. Both
/// change only *which* windows cost an event, never an outcome: window k of
/// pair p is defined by u(key, p, k) alone (generation_service.hpp). The
/// oracle below is the plain definition — one simulator event per window,
/// the same key, the same window grid — and every generated case must
/// reproduce its counters, deposit and handler instants, pops and
/// max_delivery_gap bit for bit.
///
/// Cases vary seed x {Buffered, OnDemand} x {Synchronous, Asynchronous} x
/// {infinite, finite cutoff} x {no provider, drift + outages} x {with,
/// without pre-fill} (pre-fill only where buffered), over randomized link
/// parameters. Consumers act in the arrival handler and at scheduled
/// instants off the window grid, whose ordering against deposits is fixed
/// by time alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "des/simulator.hpp"
#include "ent/buffer_pool.hpp"
#include "ent/generation_service.hpp"
#include "ent/link_params.hpp"
#include "obs/trace.hpp"

namespace dqcsim::ent {
namespace {

/// One generated case.
struct Case {
  LinkParams params;
  ServiceMode mode = ServiceMode::Buffered;
  bool provider = false;
  bool prefill = false;
  std::uint64_t seed = 0;
  std::vector<std::pair<double, double>> outages;  ///< down [start, end)
  std::vector<double> pop_times;                   ///< off-grid consumer pops
  double horizon = 0.0;                            ///< stop() instant
  double boundary_every = 37.0;  ///< provider stable_until spacing
};

/// Drift + outages as a pure function of time (what the contract asks of a
/// provider between resyncs): p and f0 step every 37 time units, the link
/// is down inside the case's outage intervals.
EffectiveLink drift(const Case& c, des::SimTime t) {
  EffectiveLink eff;
  const auto step = static_cast<std::uint64_t>(t / 37.0);
  const double scale = 0.4 + 0.15 * static_cast<double>((step * 7 + 3) % 9);
  eff.p_succ = std::min(1.0, c.params.p_succ * scale);
  eff.f0 = 0.9 + 0.01 * static_cast<double>(step % 9);
  for (const auto& [start, end] : c.outages) {
    if (t >= start && t < end) eff.up = false;
  }
  return eff;
}

/// What one run produced; compared field by field.
struct Record {
  std::vector<double> handler_calls;
  std::vector<std::pair<double, double>> pops;  ///< (deposited, f0)
  std::size_t attempts = 0, successes = 0, wasted_full = 0;
  std::size_t wasted_unconsumed = 0;
  double gap = 0.0;
  std::size_t deposited = 0, consumed = 0, expired = 0, rejected = 0;
  std::size_t stored = 0;
};

/// Consumer behaviour shared by both implementations: in the buffered
/// handler, every third notification pops one pair (alternating order); in
/// on-demand mode, calls whose index is not a multiple of three consume.
bool consumer_pops_now(std::size_t call) { return call % 3 == 1; }
ConsumeOrder order_of(std::size_t i) {
  return i % 2 == 0 ? ConsumeOrder::FreshestFirst : ConsumeOrder::OldestFirst;
}

/// The definition, one simulator event per window (format-1 structure with
/// format-2 draws).
class PerWindowOracle {
 public:
  PerWindowOracle(des::Simulator& sim, const Case& c)
      : sim_(sim),
        c_(c),
        pool_(c.params.buffer_capacity, c.params.f0, c.params.kappa,
              c.params.cutoff) {}

  void pre_fill() {
    const double f0 = c_.provider ? drift(c_, 0.0).f0 : c_.params.f0;
    while (!pool_.full(0.0)) pool_.deposit(0.0, f0);
  }

  void start(std::uint64_t key) {
    running_ = true;
    const LinkParams& lp = c_.params;
    const int groups = std::min(lp.async_subgroups, lp.num_comm_pairs);
    for (int p = 0; p < lp.num_comm_pairs; ++p) {
      double offset = 0.0;
      if (lp.schedule == AttemptSchedule::Asynchronous) {
        offset = lp.cycle_time * static_cast<double>(p % groups) /
                 static_cast<double>(groups);
      }
      const double first = offset > 0.0 ? offset : lp.cycle_time;
      schedule_window(p, 0, first,
                      KeyedStream(key, static_cast<std::uint64_t>(p)));
    }
  }

  void stop() { running_ = false; }

  std::optional<BufferedPair> pop(ConsumeOrder order) {
    return pool_.pop(sim_.now(), order);
  }

  Record& record() { return rec_; }
  BufferPool& pool() { return pool_; }
  std::size_t attempts = 0, successes = 0, wasted_full = 0;
  std::size_t wasted_unconsumed = 0;
  double last_success = 0.0, max_gap = 0.0;

 private:
  void schedule_window(int p, std::uint64_t k, double first, KeyedStream u) {
    const double t = first + static_cast<double>(k) * c_.params.cycle_time;
    sim_.schedule_at(t, [this, p, k, first, u, t] {
      if (!running_) return;
      EffectiveLink eff{c_.params.p_succ, c_.params.f0, true};
      if (c_.provider) eff = drift(c_, t);
      if (eff.up) {
        ++attempts;
        if (u.uniform(k) < eff.p_succ) {
          ++successes;
          max_gap = std::max(max_gap, t - last_success);
          last_success = t;
          deliver(t, eff.f0);
        }
      }
      schedule_window(p, k + 1, first, u);
    });
  }

  void deliver(double t, double f0) {
    if (c_.mode == ServiceMode::OnDemand) {
      const std::size_t call = rec_.handler_calls.size();
      rec_.handler_calls.push_back(t);
      if (call % 3 == 0) ++wasted_unconsumed;
      return;
    }
    sim_.schedule_at(t + c_.params.swap_latency, [this, f0] {
      const double at = sim_.now();
      if (!pool_.deposit(at, f0)) {
        ++wasted_full;
        return;
      }
      const std::size_t call = rec_.handler_calls.size();
      rec_.handler_calls.push_back(at);
      if (consumer_pops_now(call)) {
        if (auto pair = pool_.pop(at, order_of(call))) {
          rec_.pops.emplace_back(pair->deposited, pair->f0);
        }
      }
    });
  }

  des::Simulator& sim_;
  const Case& c_;
  BufferPool pool_;
  Record rec_;
  bool running_ = false;
};

/// Scheduled consumer pops (off the window grid), shared by both sides.
template <typename PopFn>
void schedule_pops(des::Simulator& sim, const Case& c, Record& rec,
                   PopFn pop) {
  for (std::size_t i = 0; i < c.pop_times.size(); ++i) {
    sim.schedule_at(c.pop_times[i], [&rec, pop, i] {
      if (auto pair = pop(order_of(i))) {
        rec.pops.emplace_back(pair->deposited, pair->f0);
      }
    });
  }
}

/// Snapshot counters at the current time.
template <typename Counters>
void snapshot(Record& rec, double now, BufferPool& pool, Counters counters) {
  counters(rec);
  rec.stored = pool.size(now);  // expires up to now on both sides alike
  rec.deposited = pool.total_deposited();
  rec.consumed = pool.total_consumed();
  rec.expired = pool.total_expired();
  rec.rejected = pool.total_rejected();
}

/// (before stop, after stop + drain) records of the oracle.
std::pair<Record, Record> run_oracle(const Case& c, std::uint64_t key) {
  des::Simulator sim;
  PerWindowOracle oracle(sim, c);
  if (c.prefill) oracle.pre_fill();
  oracle.start(key);
  schedule_pops(sim, c, oracle.record(),
                [&oracle](ConsumeOrder o) { return oracle.pop(o); });
  const auto counters = [&](Record& r) {
    r.attempts = oracle.attempts;
    r.successes = oracle.successes;
    r.wasted_full = oracle.wasted_full;
    r.wasted_unconsumed = oracle.wasted_unconsumed;
    r.gap = std::max(oracle.max_gap, sim.now() - oracle.last_success);
  };
  sim.run_until(c.horizon);
  Record before = oracle.record();
  snapshot(before, c.horizon, oracle.pool(), counters);
  oracle.stop();
  sim.run_until(c.horizon + 60.0);
  Record after = oracle.record();
  snapshot(after, sim.now(), oracle.pool(), counters);
  return {before, after};
}

/// Which of the service's event-saving paths a run took (from its trace).
struct Coverage {
  std::size_t parks = 0;         ///< park spans
  std::size_t long_skips = 0;    ///< runs of a whole chunk without success
  /// Park spans too long to settle without a bulk-counted round: one settle
  /// walks at most the ragged first round and the rounds whose deposits
  /// land within swap_latency of the wake.
  std::size_t bulk_parks = 0;
};

std::pair<Record, Record> run_service(const Case& c, std::uint64_t* key,
                                      Coverage* coverage) {
  des::Simulator sim;
  Rng rng(c.seed);
  *key = Rng(c.seed)();  // the one draw start() takes
  GenerationService svc(sim, c.params, rng, c.mode);
  obs::TraceBuffer trace;
  trace.reset(1 << 16);
  svc.set_trial_trace(&trace, 1);
  Record rec;
  // Like the engine, the provider vouches for its answers only up to the
  // next "boundary" event (scheduled before the service starts), so scans
  // stop there and resume after it.
  const double every = c.boundary_every;
  double settled_until = every;
  if (c.provider) {
    for (double b = every; b < c.horizon + 60.0; b += every) {
      sim.schedule_at(b, [&settled_until, every] { settled_until += every; });
    }
    svc.set_effective_provider([&c, &settled_until](des::SimTime t) {
      EffectiveLink eff = drift(c, t);
      eff.stable_until = settled_until;
      return eff;
    });
  }
  svc.set_arrival_handler([&](des::SimTime at) {
    const std::size_t call = rec.handler_calls.size();
    rec.handler_calls.push_back(at);
    if (c.mode == ServiceMode::OnDemand) return call % 3 != 0;
    if (consumer_pops_now(call)) {
      if (auto pair = svc.take(order_of(call))) {
        rec.pops.emplace_back(pair->deposited, pair->f0);
      }
    }
    return true;
  });
  if (c.prefill) svc.pre_fill_buffer();
  svc.start();
  schedule_pops(sim, c, rec,
                [&svc](ConsumeOrder o) { return svc.take(o); });
  const auto counters = [&](Record& r) {
    r.attempts = svc.attempts();
    r.successes = svc.successes();
    r.wasted_full = svc.wasted_buffer_full();
    r.wasted_unconsumed = svc.wasted_unconsumed();
    r.gap = svc.max_delivery_gap(sim.now());
  };
  sim.run_until(c.horizon);
  Record before = rec;
  snapshot(before, c.horizon, svc.buffer(), counters);
  svc.stop();
  sim.run_until(c.horizon + 60.0);
  Record after = rec;
  snapshot(after, sim.now(), svc.buffer(), counters);
  const auto slots = static_cast<std::size_t>(c.params.num_comm_pairs);
  const auto walked_rounds = static_cast<std::size_t>(
      std::ceil(c.params.swap_latency / c.params.cycle_time));
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.ev == obs::Ev::Park) ++coverage->parks;
    if (e.ev == obs::Ev::Park && e.windows > slots * (walked_rounds + 2)) {
      ++coverage->bulk_parks;
    }
    const std::size_t chunk = c.provider
                                  ? GenerationService::kProviderScanChunk
                                  : GenerationService::kScanChunk;
    if (e.ev == obs::Ev::Skip && e.windows >= chunk) ++coverage->long_skips;
  }
  return {before, after};
}

/// Axes of the generated grid, one bit each.
struct Axes {
  bool on_demand, async, finite_cutoff, provider, prefill;
};

Case make_case(const Axes& axes, std::uint64_t seed) {
  Rng gen(seed * 0x9E3779B97F4A7C15ULL + 17);
  Case c;
  c.seed = seed;
  c.mode = axes.on_demand ? ServiceMode::OnDemand : ServiceMode::Buffered;
  c.provider = axes.provider;
  c.prefill = axes.prefill;
  LinkParams& lp = c.params;
  lp.num_comm_pairs = 1 + static_cast<int>(gen.uniform_int(12));
  lp.buffer_capacity = 1 + static_cast<int>(gen.uniform_int(8));
  // One case in four is nearly dead, so scans run whole chunks without a
  // success (and the horizon is long enough to need several).
  const bool sparse = gen.uniform_int(4) == 0;
  lp.p_succ =
      sparse ? 1e-4 * (1.0 + gen.uniform()) : 0.02 + 0.9 * gen.uniform();
  lp.cycle_time = gen.bernoulli(0.5) ? 10.0 : 7.25;
  const double swaps[] = {0.0, 1.0, 2.5};
  lp.swap_latency = swaps[gen.uniform_int(3)];
  lp.schedule = axes.async ? AttemptSchedule::Asynchronous
                           : AttemptSchedule::Synchronous;
  lp.async_subgroups = 1 + static_cast<int>(gen.uniform_int(6));
  // Whole multiples of the cycle put expiries on the deposit grid, which
  // exercises the park wake at a pair's exact expiry instant.
  if (axes.finite_cutoff) {
    lp.cutoff = gen.bernoulli(0.5) ? 5.0 * lp.cycle_time
                                   : 20.0 + 80.0 * gen.uniform();
  }
  lp.record_trace = false;
  c.horizon = (sparse ? 40000.0 : 1500.0) + 0.37 + 500.0 * gen.uniform();
  c.boundary_every = sparse ? 3700.0 : 37.0;
  for (int i = 0; i < 3; ++i) {
    const double start = c.horizon * gen.uniform();
    c.outages.emplace_back(start, start + 20.0 + 150.0 * gen.uniform());
  }
  const auto pops = static_cast<int>(gen.uniform_int(60));
  for (int i = 0; i < pops; ++i) {
    // Off-grid instants (the grid is rational in 0.25 steps).
    c.pop_times.push_back((c.horizon + 60.0) * gen.uniform() + 0.0123);
  }
  return c;
}

class GenerationOracle : public ::testing::TestWithParam<int> {};

constexpr int kSeedsPerAxes = 25;

TEST_P(GenerationOracle, EventSparseServiceMatchesPerWindowDefinition) {
  const int bits = GetParam();
  const Axes axes{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0,
                  (bits & 8) != 0, (bits & 16) != 0};
  Coverage coverage;
  for (int s = 0; s < kSeedsPerAxes; ++s) {
    const auto seed = static_cast<std::uint64_t>(bits * 1000 + s);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Case c = make_case(axes, seed);
    std::uint64_t key = 0;
    const auto [svc_before, svc_after] = run_service(c, &key, &coverage);
    const auto [orc_before, orc_after] = run_oracle(c, key);
    for (const auto& [svc, orc, when] :
         {std::tuple{&svc_before, &orc_before, "at the horizon"},
          std::tuple{&svc_after, &orc_after, "after stop"}}) {
      SCOPED_TRACE(when);
      EXPECT_EQ(svc->attempts, orc->attempts);
      EXPECT_EQ(svc->successes, orc->successes);
      EXPECT_EQ(svc->wasted_full, orc->wasted_full);
      EXPECT_EQ(svc->wasted_unconsumed, orc->wasted_unconsumed);
      EXPECT_EQ(svc->gap, orc->gap);
      EXPECT_EQ(svc->handler_calls, orc->handler_calls);
      EXPECT_EQ(svc->pops, orc->pops);
      EXPECT_EQ(svc->deposited, orc->deposited);
      EXPECT_EQ(svc->consumed, orc->consumed);
      EXPECT_EQ(svc->expired, orc->expired);
      EXPECT_EQ(svc->stored, orc->stored);
    }
    // The pool counts a parked deposit when the service settles it (wake or
    // stop); wasted_buffer_full() above is the exact-at-any-time figure.
    EXPECT_EQ(svc_after.rejected, orc_after.rejected);
    // A case that never generates would compare nothing.
    EXPECT_GT(orc_after.attempts, 0u);
  }
  // The grid must reach the paths that skip events, or it proves nothing.
  EXPECT_GT(coverage.long_skips, 0u);
  if (!axes.on_demand) EXPECT_GT(coverage.parks, 0u);
}

/// The 24 valid axis combinations (pre-fill needs a buffered service):
/// 24 x 25 seeds = 600 compared cases.
std::vector<int> valid_axes() {
  std::vector<int> out;
  for (int bits = 0; bits < 32; ++bits) {
    const bool on_demand = (bits & 1) != 0;
    const bool prefill = (bits & 16) != 0;
    if (!(on_demand && prefill)) out.push_back(bits);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Axes, GenerationOracle,
                         ::testing::ValuesIn(valid_axes()));

/// A buffered case built to park for long spans: a pool of one or two
/// pairs, p_succ up to 1, rare consumer pops, SWAPs longer than a cycle,
/// and a horizon (the stop() instant) off the window grid. Some links carry
/// more than 64 pairs, so a round spans several success masks.
Case make_parked_case(bool async, bool finite_cutoff, bool prefill,
                      std::uint64_t seed) {
  Rng gen(seed * 0xD1B54A32D192ED03ULL + 5);
  Case c;
  c.seed = seed;
  c.mode = ServiceMode::Buffered;
  c.prefill = prefill;
  LinkParams& lp = c.params;
  lp.num_comm_pairs = gen.uniform_int(5) == 0
                          ? 60 + static_cast<int>(gen.uniform_int(80))
                          : 1 + static_cast<int>(gen.uniform_int(20));
  lp.buffer_capacity = 1 + static_cast<int>(gen.uniform_int(2));
  lp.p_succ = gen.uniform_int(4) == 0 ? 1.0 : 0.05 + 0.95 * gen.uniform();
  lp.cycle_time = gen.bernoulli(0.5) ? 10.0 : 7.25;
  const double swaps[] = {0.0, 2.5, 12.0, 23.5};
  lp.swap_latency = swaps[gen.uniform_int(4)];
  lp.schedule =
      async ? AttemptSchedule::Asynchronous : AttemptSchedule::Synchronous;
  lp.async_subgroups = 1 + static_cast<int>(gen.uniform_int(6));
  // Wakes at a pair's expiry, hundreds of rounds after its deposit.
  if (finite_cutoff) {
    lp.cutoff = lp.cycle_time * (100.0 + 300.0 * gen.uniform());
  }
  lp.record_trace = false;
  const double rounds = 400.0 + 800.0 * gen.uniform();
  c.horizon = lp.cycle_time * (rounds + 0.1 + 0.8 * gen.uniform());
  const auto pops = static_cast<int>(gen.uniform_int(6));
  for (int i = 0; i < pops; ++i) {
    c.pop_times.push_back((c.horizon + 60.0) * gen.uniform() + 0.0123);
  }
  return c;
}

class ParkedGenerationOracle : public ::testing::TestWithParam<int> {};

TEST_P(ParkedGenerationOracle, BulkSettledSpansMatchPerWindowDefinition) {
  const int bits = GetParam();
  const bool async = (bits & 1) != 0;
  const bool finite_cutoff = (bits & 2) != 0;
  const bool prefill = (bits & 4) != 0;
  Coverage coverage;
  for (int s = 0; s < kSeedsPerAxes; ++s) {
    const auto seed = static_cast<std::uint64_t>(50000 + bits * 1000 + s);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Case c = make_parked_case(async, finite_cutoff, prefill, seed);
    std::uint64_t key = 0;
    const auto [svc_before, svc_after] = run_service(c, &key, &coverage);
    const auto [orc_before, orc_after] = run_oracle(c, key);
    for (const auto& [svc, orc, when] :
         {std::tuple{&svc_before, &orc_before, "at the horizon"},
          std::tuple{&svc_after, &orc_after, "after stop"}}) {
      SCOPED_TRACE(when);
      EXPECT_EQ(svc->attempts, orc->attempts);
      EXPECT_EQ(svc->successes, orc->successes);
      EXPECT_EQ(svc->wasted_full, orc->wasted_full);
      EXPECT_EQ(svc->gap, orc->gap);
      EXPECT_EQ(svc->handler_calls, orc->handler_calls);
      EXPECT_EQ(svc->pops, orc->pops);
      EXPECT_EQ(svc->deposited, orc->deposited);
      EXPECT_EQ(svc->consumed, orc->consumed);
      EXPECT_EQ(svc->expired, orc->expired);
      EXPECT_EQ(svc->stored, orc->stored);
    }
    EXPECT_EQ(svc_after.rejected, orc_after.rejected);
  }
  // Most parked spans must have been long enough to count rounds in bulk.
  EXPECT_GT(coverage.bulk_parks, coverage.parks / 2);
}

/// async x finite cutoff x pre-fill: 8 x 25 seeds = 200 parked cases.
INSTANTIATE_TEST_SUITE_P(Axes, ParkedGenerationOracle, ::testing::Range(0, 8));

}  // namespace
}  // namespace dqcsim::ent
