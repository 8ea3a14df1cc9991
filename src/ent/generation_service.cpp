#include "ent/generation_service.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace dqcsim::ent {

namespace {
constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

GenerationService::GenerationService(des::Simulator& sim,
                                     const LinkParams& params, Rng& rng,
                                     ServiceMode mode)
    : sim_(sim),
      params_(params),
      rng_(rng),
      mode_(mode),
      buffer_(params.buffer_capacity, params.f0, params.kappa,
              params.cutoff) {
  params_.validate();
}

void GenerationService::reset(const LinkParams& params, ServiceMode mode) {
  params_ = params;
  params_.validate();
  mode_ = mode;
  // Invalidate any events still scheduled on the simulator from the
  // previous run (harmless when the caller resets the simulator too, as the
  // trial loop does).
  ++epoch_;
  buffer_.configure(params.buffer_capacity, params.f0, params.kappa,
                    params.cutoff);
  trace_.clear();
  handler_ = nullptr;
  provider_ = nullptr;
  obs_trace_ = nullptr;
  obs_track_ = 0;
  started_ = false;
  running_ = false;
  cursor_ = Window{};
  chain_active_ = false;
  parked_ = false;
  settled_ = Tally{};
  wasted_unconsumed_ = 0;
  windows_walked_ = 0;
}

double GenerationService::offset_of(int pair_index) const {
  DQCSIM_EXPECTS(pair_index >= 0 && pair_index < params_.num_comm_pairs);
  if (params_.schedule == AttemptSchedule::Synchronous) return 0.0;
  const int groups =
      std::min(params_.async_subgroups, params_.num_comm_pairs);
  const int group = pair_index % groups;
  return params_.cycle_time * static_cast<double>(group) /
         static_cast<double>(groups);
}

void GenerationService::start() {
  if (started_) return;
  started_ = true;
  running_ = true;
  // Entanglement generation is a continuously running background service
  // (paper §III-B), so attempt windows are already in steady state when the
  // circuit starts: a zero offset completes after a full cycle. Results are
  // only *stored* from start() on, which keeps the buffered designs
  // distinct from init_buf's pre-filled buffer.
  start_time_ = sim_.now();
  settled_.last_success = start_time_;
  hash_ceiling_ = KeyedStream::hash_ceiling(params_.p_succ);
  const std::uint64_t key = rng_();

  // Slots: pairs sorted by first completion (stable in the pair index), so
  // walking (round, slot) visits windows in time order. Insertion sort: the
  // pair count is small and this must not allocate on a same-size reset.
  const auto pairs = static_cast<std::size_t>(params_.num_comm_pairs);
  first_.resize(pairs);
  streams_.resize(pairs);
  std::size_t filled = 0;
  for (int p = 0; p < params_.num_comm_pairs; ++p) {
    const double offset = offset_of(p);
    const double first = offset > 0.0 ? offset : params_.cycle_time;
    std::size_t at = filled;
    while (at > 0 && first_[at - 1] > first) {
      first_[at] = first_[at - 1];
      streams_[at] = streams_[at - 1];
      --at;
    }
    first_[at] = first;
    streams_[at] = KeyedStream(key, static_cast<std::uint64_t>(p));
    ++filled;
  }
  cursor_ = Window{};

  if (mode_ == ServiceMode::Buffered && buffer_.full(sim_.now())) park();
  if (!parked_) scan();
}

void GenerationService::stop() {
  if (!running_) return;
  retire_chain(/*keep_offers=*/false);
  settle_through(sim_.now(), /*stopping=*/true);
  if (parked_) {
    parked_ = false;
    ++wake_ticket_;
    if (obs_trace_ != nullptr) {
      obs_trace_->span_counts(obs::Ev::Park, obs_track_, parked_since_,
                              sim_.now(), park_windows_, park_successes_);
    }
  }
  running_ = false;
}

void GenerationService::pre_fill_buffer() {
  DQCSIM_EXPECTS_MSG(mode_ == ServiceMode::Buffered,
                     "pre-fill requires a buffered service");
  // Under a scenario, pre-loaded pairs carry the effective birth fidelity
  // of the fill instant (they were generated by the same drifting fabric).
  const double f0 = provider_ ? provider_(sim_.now()).f0 : params_.f0;
  while (!buffer_.full(sim_.now())) {
    buffer_.deposit(sim_.now(), f0);
  }
  if (running_ && !parked_) park();
}

void GenerationService::resync() {
  if (!running_) return;
  retire_chain(/*keep_offers=*/true);
  settle_through(sim_.now(), /*stopping=*/false);
  if (parked_) return;
  // Re-read later windows from an event at this instant: it runs after the
  // caller has changed what the provider reports.
  chain_active_ = true;
  chain_end_ = cursor_;
  run_windows_ = 0;
  run_attempts_ = 0;
  batch_ = 0;
  run_t0_ = run_t1_ = sim_.now();
  schedule_run_event(sim_.now(), sim_.now(), 0, 0.0);
}

std::optional<BufferedPair> GenerationService::take(ConsumeOrder order) {
  const des::SimTime now = sim_.now();
  // Parked deposits before now found the pool full; settle them before the
  // pop frees a slot (the pop precedes parked deposits landing at now).
  if (parked_ && !chain_active_ && running_) settle_through(now, false);
  std::optional<BufferedPair> pair = buffer_.pop(now, order);
  if (pair && parked_) unpark();
  return pair;
}

std::size_t GenerationService::flush() {
  const des::SimTime now = sim_.now();
  if (parked_ && !chain_active_ && running_) settle_through(now, false);
  const std::size_t dropped = buffer_.flush(now);
  if (parked_) unpark();
  return dropped;
}

// DQCSIM_HOT
template <bool kProvider>
GenerationService::Outcome GenerationService::evaluate(const Window& w,
                                                       double t) const {
  if constexpr (kProvider) {
    const EffectiveLink eff = provider_(t);
    return {eff.up, eff.up && streams_[w.slot].uniform(w.round) < eff.p_succ,
            eff.f0, eff.stable_until};
  } else {
    return {true, streams_[w.slot].hash(w.round) <= hash_ceiling_,
            params_.f0, 0.0};
  }
}

// DQCSIM_HOT
// Inlined into the walking loops: between dense successes it runs only a
// few windows per call, so call overhead would dominate.
[[gnu::always_inline]] inline std::size_t GenerationService::skip_failures(
    Window& w, double until, std::size_t max) const {
  // The loops' cost floor: one hash and compare per window. Whole rounds
  // inside the bounds skip the per-window time check (slot times increase
  // within a round).
  const auto slots = static_cast<std::uint32_t>(first_.size());
  std::size_t n = 0;
  while (n < max) {
    const std::size_t rest = slots - w.slot;
    if (rest <= max - n && time_of(Window{w.round, slots - 1}) <= until) {
      for (std::uint32_t s = w.slot; s < slots; ++s) {
        if (streams_[s].hash(w.round) <= hash_ceiling_) {
          n += s - w.slot;
          w.slot = s;
          return n;
        }
      }
      n += rest;
      w.slot = 0;
      ++w.round;
      continue;
    }
    for (; w.slot < slots; ++w.slot, ++n) {
      if (n >= max || time_of(w) > until ||
          streams_[w.slot].hash(w.round) <= hash_ceiling_) {
        return n;
      }
    }
    w.slot = 0;
    ++w.round;
  }
  return n;
}

// DQCSIM_HOT
GenerationService::Bulk GenerationService::count_rounds(Window& w,
                                                        double lag,
                                                        double limit,
                                                        Tally& out) const {
  // Successes are counted per group of up to 64 slots, from a mask built
  // without branches. Groups (and rounds) are disjoint in time and visited
  // in time order, so the gaps between successes are those from the last
  // success before a group to its first one, plus the ones inside it; the
  // latter are at most the group's span (first to last success) and are
  // visited only when that span could raise the running max.
  const auto slots = static_cast<std::uint32_t>(first_.size());
  const double cycle = params_.cycle_time;
  const std::uint64_t ceiling = hash_ceiling_;
  Bulk bulk;
  for (;; ++w.round) {
    // time_of's arithmetic, so times match the walk's bit for bit.
    const double base = static_cast<double>(w.round) * cycle;
    if (!(start_time_ + (first_[slots - 1] + base) + lag < limit)) break;
    bulk.windows += slots;
    for (std::uint32_t group = 0; group < slots; group += 64) {
      const std::uint32_t end = std::min(slots, group + 64);
      // Bit s - group of the mask is slot s's outcome; shifting in from
      // the last slot keeps the loop free of variable shifts.
      std::uint64_t mask = 0;
      std::size_t hits = 0;
      for (std::uint32_t s = end; s-- > group;) {
        const bool hit = streams_[s].hash(w.round) <= ceiling;
        mask = (mask << 1) | static_cast<std::uint64_t>(hit);
        hits += static_cast<std::size_t>(hit);
      }
      if (mask == 0) continue;
      bulk.successes += hits;
      const auto time_at = [&](int bit) {
        const std::uint32_t s = group + static_cast<std::uint32_t>(bit);
        return start_time_ + (first_[s] + base);
      };
      const double first = time_at(std::countr_zero(mask));
      const double last = time_at(63 - std::countl_zero(mask));
      out.record_success(first);
      if (out.max_gap < last - first) {
        for (std::uint64_t m = mask & (mask - 1); m != 0; m &= m - 1) {
          out.record_success(time_at(std::countr_zero(m)));
        }
      }
      out.last_success = last;
    }
  }
  out.attempts += bulk.windows;
  out.successes += bulk.successes;
  return bulk;
}

GenerationService::Tally GenerationService::tally() const {
  if (!running_) return settled_;
  return provider_ ? tally_from_cursor<true>() : tally_from_cursor<false>();
}

template <bool kProvider>
GenerationService::Tally GenerationService::tally_from_cursor() const {
  Tally out = settled_;
  const des::SimTime now = sim_.now();
  // Parked deposits are wasted once strictly in the past (a wake at now
  // would still replay one landing at now).
  const bool parked_region =
      parked_ && !chain_active_ && mode_ == ServiceMode::Buffered;
  Window w = cursor_;
  // Up to `max` windows in time order, none completing after now.
  const auto walk = [&](std::size_t max) {
    for (double t = time_of(w); max > 0 && t <= now;
         --max, advance(w), t = time_of(w)) {
      if constexpr (!kProvider) {
        const std::size_t skipped = skip_failures(w, now, max);
        out.attempts += skipped;
        max -= skipped;
        t = time_of(w);
        if (max == 0 || t > now) break;
      }
      const Outcome o = evaluate<kProvider>(w, t);
      if (!o.up) continue;
      ++out.attempts;
      if (!o.success) continue;
      ++out.successes;
      out.record_success(t);
      if (parked_region && t + params_.swap_latency < now) ++out.wasted;
    }
  };
  if constexpr (kProvider) {
    walk(kNoLimit);
  } else {
    // The ragged first round, whole rounds in bulk, then the rest.
    walk(w.slot == 0 ? 0 : first_.size() - w.slot);
    if (w.slot == 0) {
      if (parked_region) {
        out.wasted +=
            count_rounds(w, params_.swap_latency, now, out).successes;
      } else {
        count_rounds(w, 0.0, std::nextafter(now, kInf), out);
      }
    }
    walk(kNoLimit);
  }
  return out;
}

void GenerationService::scan() {
  if (provider_) {
    scan_windows<true>();
  } else {
    scan_windows<false>();
  }
}

// DQCSIM_HOT
template <bool kProvider>
void GenerationService::scan_windows() {
  // Walk windows from the cursor until the first success instant has been
  // covered completely, or for one chunk (and at least up to now); either
  // way one event settles the run. Failed windows only bump a counter.
  const des::SimTime now = sim_.now();
  Window w = cursor_;
  std::size_t windows = 0;
  std::size_t attempts = 0;
  std::uint32_t batch = 0;
  double batch_t = 0.0;
  double batch_f0 = 0.0;
  constexpr std::size_t chunk = kProvider ? kProviderScanChunk : kScanChunk;
  double horizon = std::numeric_limits<double>::infinity();
  double t = time_of(w);
  run_t0_ = t;
  run_t1_ = now;
  for (; windows < chunk || t <= now; ++windows, advance(w), t = time_of(w)) {
    if constexpr (!kProvider) {
      // Failed windows up to now, then up to the chunk (or, within a
      // success instant, up to that instant).
      const double until = batch > 0 ? batch_t : now;
      std::size_t skipped = skip_failures(w, until, kNoLimit);
      if (batch == 0 && windows + skipped < chunk) {
        skipped += skip_failures(w, std::numeric_limits<double>::infinity(),
                                 chunk - windows - skipped);
      }
      if (skipped > 0) {
        windows += skipped;
        attempts += skipped;
        run_t1_ = time_before(w);
        t = time_of(w);
        if (!(windows < chunk || t <= now)) break;
      }
    }
    if (batch > 0 && t != batch_t) break;
    if (t > horizon) break;
    const Outcome o = evaluate<kProvider>(w, t);
    if constexpr (kProvider) {
      // Stop where the provider's answers stop being final; the answer
      // for this window is dropped and re-read later.
      horizon = o.stable_until;
      DQCSIM_ENSURES_MSG(horizon >= now,
                         "a provider's stable_until lies in the past");
      if (t > horizon) break;
    }
    if (o.success) {
      if (batch == 0) {
        batch_t = t;
        batch_f0 = o.f0;
      }
      ++batch;
    } else if (o.up) {
      ++attempts;
    }
    run_t1_ = t;
  }
  chain_active_ = true;
  chain_end_ = w;
  windows_walked_ += windows;
  run_windows_ = windows;
  run_attempts_ = attempts;
  batch_ = batch;
  batch_time_ = batch_t;
  if (batch == 0) {
    // Chunk without a success: continue from its last window's instant, or
    // from the provider's horizon when the scan stopped there.
    const double at = t > horizon ? horizon : run_t1_;
    schedule_run_event(std::max(at, now), run_t1_, 0, 0.0);
  } else {
    const double at = mode_ == ServiceMode::Buffered
                          ? batch_t + params_.swap_latency
                          : batch_t;
    schedule_run_event(at, batch_t, batch, batch_f0);
  }
}

void GenerationService::schedule_run_event(double at, double t,
                                           std::uint32_t n, double f0) {
  const std::uint32_t ticket = ++ticket_;
  chain_event_ = sim_.schedule_at(
      at, [this, epoch = epoch_, ticket, n, t, f0] {
        if (epoch == epoch_) on_run_event(ticket, t, n, f0);
      });
}

void GenerationService::on_run_event(std::uint32_t ticket, double t,
                                     std::uint32_t n, double f0) {
  // A retired or replayed run's event only delivers its successes; the
  // chain's own event also settles the run and extends the chain. It
  // extends the chain first, so the next success's event is scheduled
  // before anything the handlers schedule at this instant — the order a
  // per-window simulation, whose window events are scheduled a cycle
  // ahead, gives the next deposit against a gate started now.
  const bool owner = chain_active_ && ticket == ticket_;
  if (owner) {
    settle_run();
    if (running_ && !parked_) scan();
  }
  if (n == 0) return;
  if (mode_ == ServiceMode::Buffered) {
    land(n, f0);
  } else {
    offer(t, n);
  }
}

void GenerationService::settle_run() {
  settled_.attempts += run_attempts_ + batch_;
  settled_.successes += batch_;
  if (batch_ > 0) settled_.record_success(batch_time_);
  if (obs_trace_ != nullptr && run_windows_ > 0) {
    obs_trace_->span_counts(obs::Ev::Skip, obs_track_, run_t0_, run_t1_,
                            run_windows_, batch_);
  }
  cursor_ = chain_end_;
  chain_active_ = false;
}

void GenerationService::retire_chain(bool keep_offers) {
  if (!chain_active_) return;
  if (batch_ == 0 && run_t1_ <= sim_.now()) {
    // Every window of the run has completed: settle it from its counts.
    sim_.cancel(chain_event_);
    settle_run();
    return;
  }
  if (batch_ > 0 && batch_time_ <= sim_.now()) {
    // The run's successes already happened: settle it, and let its event
    // deliver them (no longer as the chain's owner).
    settle_run();
    if (mode_ == ServiceMode::OnDemand && !keep_offers) {
      sim_.cancel(chain_event_);
      wasted_unconsumed_ += batch_;
    }
    return;
  }
  // Nothing of the run has happened yet: forget it; settle_through
  // re-reads its windows.
  sim_.cancel(chain_event_);
  chain_active_ = false;
}

void GenerationService::settle_through(double until, bool stopping) {
  DQCSIM_ENSURES(!chain_active_);
  if (provider_) {
    settle_windows<true>(until, stopping);
  } else {
    settle_windows<false>(until, stopping);
  }
}

template <bool kProvider>
void GenerationService::settle_windows(double until, bool stopping) {
  std::uint32_t pending = 0;  // replayed successes at pending_t
  double pending_t = 0.0;
  double pending_f0 = 0.0;
  Window w = cursor_;
  // Up to `max` windows in time order, none completing after `until`.
  const auto walk = [&](std::size_t max) {
    for (double t = time_of(w); max > 0 && t <= until;
         --max, advance(w), t = time_of(w)) {
      if constexpr (!kProvider) {
        const std::size_t skipped = skip_failures(w, until, max);
        settled_.attempts += skipped;
        windows_walked_ += skipped;
        if (parked_) park_windows_ += skipped;
        max -= skipped;
        t = time_of(w);
        if (max == 0 || t > until) break;
      }
      const Outcome o = evaluate<kProvider>(w, t);
      ++windows_walked_;
      if (parked_) ++park_windows_;
      if (!o.up) continue;
      ++settled_.attempts;
      if (!o.success) continue;
      ++settled_.successes;
      settled_.record_success(t);
      if (parked_) ++park_successes_;
      if (mode_ == ServiceMode::Buffered &&
          t + params_.swap_latency < until) {
        // Only a parked service leaves deposits behind the clock, and its
        // pool was full at every one of them.
        const bool stored =
            buffer_.deposit(t + params_.swap_latency, o.f0);
        DQCSIM_ENSURES(!stored);
        ++settled_.wasted;
        continue;
      }
      if (mode_ == ServiceMode::OnDemand && stopping) {
        ++wasted_unconsumed_;
        continue;
      }
      if (pending > 0 && t != pending_t) {
        schedule_replay(pending_t, pending, pending_f0);
        pending = 0;
      }
      if (pending == 0) {
        pending_t = t;
        pending_f0 = o.f0;
      }
      ++pending;
    }
  };
  if constexpr (kProvider) {
    walk(kNoLimit);
  } else {
    // The ragged first round is walked; then every whole round whose
    // successes are all wasted (deposits before `until`, or offers at a
    // stop) is counted in bulk; the rest, which can replay, is walked.
    walk(w.slot == 0 ? 0 : first_.size() - w.slot);
    if (w.slot == 0 && (mode_ == ServiceMode::Buffered || stopping)) {
      const bool buffered = mode_ == ServiceMode::Buffered;
      const Bulk bulk =
          buffered
              ? count_rounds(w, params_.swap_latency, until, settled_)
              : count_rounds(w, 0.0, std::nextafter(until, kInf), settled_);
      if (parked_) {
        park_windows_ += bulk.windows;
        park_successes_ += bulk.successes;
      }
      if (buffered) {
        settled_.wasted += bulk.successes;
        if (bulk.successes > 0) {
          const bool full = buffer_.reject(
              settled_.last_success + params_.swap_latency, bulk.successes);
          DQCSIM_ENSURES(full);
        }
      } else {
        wasted_unconsumed_ += bulk.successes;
      }
    }
    walk(kNoLimit);
  }
  if (pending > 0) schedule_replay(pending_t, pending, pending_f0);
  cursor_ = w;
}

void GenerationService::schedule_replay(double t, std::uint32_t n,
                                        double f0) {
  const double at =
      mode_ == ServiceMode::Buffered ? t + params_.swap_latency : t;
  sim_.schedule_at(at, [this, epoch = epoch_, t, n, f0] {
    if (epoch == epoch_) on_run_event(0, t, n, f0);
  });
}

// DQCSIM_HOT
void GenerationService::land(std::uint32_t n, double f0) {
  const des::SimTime at = sim_.now();
  for (std::uint32_t i = 0; i < n; ++i) {
    if (buffer_.deposit(at, f0)) {
      if (obs_trace_ != nullptr) {
        obs_trace_->instant(obs::Ev::Deposit, obs_track_, at);
      }
      if (params_.record_trace) trace_.record(at);
      if (handler_) handler_(at);
    } else {
      ++settled_.wasted;
    }
  }
  if (running_ && !parked_ && buffer_.full(at)) park();
}

void GenerationService::offer(double t, std::uint32_t n) {
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!running_) {
      // Stopped by the handler mid-instant: the rest are never offered.
      wasted_unconsumed_ += n - i;
      return;
    }
    if (params_.record_trace) trace_.record(t);
    const bool consumed = handler_ ? handler_(t) : false;
    if (!consumed) ++wasted_unconsumed_;
  }
}

void GenerationService::park() {
  const des::SimTime now = sim_.now();
  double wake = std::numeric_limits<double>::infinity();
  if (std::isfinite(params_.cutoff) && buffer_.raw_size() > 0) {
    // The oldest pair expires at any instant x with x - oldest > cutoff
    // (BufferPool's rule), so the pool stays full through the largest
    // `wake` with wake - oldest <= cutoff; wake there.
    const double oldest = buffer_.oldest_deposit();
    wake = oldest + params_.cutoff;
    while (wake - oldest > params_.cutoff) {
      wake = std::nextafter(wake, -std::numeric_limits<double>::infinity());
    }
    if (wake <= now) return;  // a slot frees right after now: keep going
  }
  parked_ = true;
  parked_since_ = now;
  park_windows_ = 0;
  park_successes_ = 0;
  const std::uint32_t ticket = ++wake_ticket_;
  if (std::isfinite(wake)) {
    sim_.schedule_at(wake, [this, epoch = epoch_, ticket] {
      if (epoch != epoch_ || ticket != wake_ticket_ || !parked_) return;
      if (!chain_active_ && running_) settle_through(sim_.now(), false);
      unpark();
    });
  }
}

void GenerationService::unpark() {
  parked_ = false;
  ++wake_ticket_;
  if (obs_trace_ != nullptr) {
    obs_trace_->span_counts(obs::Ev::Park, obs_track_, parked_since_,
                            sim_.now(), park_windows_, park_successes_);
  }
  if (running_ && !chain_active_) scan();
}

}  // namespace dqcsim::ent
