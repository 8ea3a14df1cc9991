/// \file generation_service.hpp
/// \brief Continuous heralded entanglement-generation service (§III-B/C).
///
/// Each communication-qubit pair runs attempt windows of length
/// `cycle_time`; a window completes with a success with probability
/// `p_succ`. Window phases are aligned (Synchronous) or staggered across
/// subgroups (Asynchronous). Two consumption modes:
///
///  - Buffered: successes are SWAPped into the BufferPool (availability is
///    delayed by `swap_latency`); the arrival handler is notified at
///    deposit time. If the pool is full the pair is wasted. Attempt windows
///    stay on the per-pair phase grid — the SWAP is handled by the buffer
///    layer and does not re-phase the communication qubits, which preserves
///    the paper's synchronous burst pattern (Fig. 3).
///
///  - OnDemand (the paper's bufferless `original` design): a success exists
///    only at its heralding instant. The arrival handler may consume it by
///    returning true; otherwise the pair is wasted, reproducing the
///    "significant EPR pair waste" of the no-buffer design (§V-A).
///
/// Window outcomes (replay format 2)
/// ---------------------------------
/// Window k (k = 0, 1, ...) of comm pair p completes at
///
///     t(p, k) = t_start + (first(p) + k * cycle_time),
///
/// with first(p) = offset_of(p) when positive, else cycle_time, and t_start
/// the simulation time of start(). The window is an attempt iff the
/// effective provider (if any) reports the link up at t(p, k); it is a
/// success iff it is an attempt and u(p, k) < p_succ(t(p, k)), where
/// u(p, k) = KeyedStream(key, p).uniform(k) and `key` is the one draw
/// start() takes from the service's Rng. A success deposits at
/// t(p, k) + swap_latency (Buffered) or is offered to the handler at
/// t(p, k) (OnDemand); pairs completing at one instant deposit / are
/// offered in ascending pair-index order.
///
/// Every outcome is fixed by its window, so the service is free to choose
/// which windows cost a simulator event; the results do not depend on it:
///
///  - Scan-ahead: the service walks windows in time order (ties: ascending
///    first(p), then p) in chunks of at most kScanChunk windows
///    (kProviderScanChunk under a provider, and never past the provider's
///    stable_until) and schedules one event per success instant, or one
///    continuation event per chunk without a success. Failed windows cost
///    no event.
///  - Park: a Buffered service whose pool is full schedules nothing until
///    take() or flush() frees a slot, or the oldest pair's cutoff expiry
///    would. On that wake at time W, parked successes whose deposit falls
///    before W are wasted (the pool was full), and those depositing at or
///    after W are replayed as deposit events.
///  - Bulk settle: on a stationary fabric (no provider), settling windows
///    up to W (at a wake, a stop() or a counter read) walks in time order
///    only the ragged first round and the rounds holding a deposit at or
///    after W, the windows that can replay an event. Every whole round in
///    between, whose deposits all land before W (at a stop(), for an
///    OnDemand service, every round completing by W), is counted in bulk:
///    a branch-free success mask per round (per 64 pairs) from the
///    integer form of u < p_succ (KeyedStream::hash_ceiling), its
///    popcount for the success and waste counters, and max_delivery_gap
///    from each mask's first and last success. A provider's windows, and
///    scans, are always walked. windows_walked() counts the windows walked.
///
/// Semantics fixed by these rules:
///
///  - Counters are exact at sim.now(): attempts(), successes(),
///    wasted_buffer_full() and max_delivery_gap() count every window that
///    completed at or before now, whether or not an event ran for it
///    (wasted_buffer_full counts a deposit once its instant has passed, a
///    parked one once it is strictly in the past). The pool's own
///    total_rejected() sees a parked deposit only when the service settles
///    it, at the wake or at stop().
///  - stop() at time T: every window completing at or before T counts as an
///    attempt; no later window ever does. An OnDemand success at T not yet
///    offered counts as unconsumed and is never offered; Buffered successes
///    at or before T still deposit at their own instant if the simulator
///    keeps running.
///  - A deposit and a pop at the same instant: a deposit is a simulator
///    event, so it precedes a pop at its instant iff it was scheduled first
///    (the simulator's FIFO tie-break). The event of a success instant is
///    scheduled when the walk reaches it, at the previous success instant
///    and before that instant's deliveries run their handlers — as a
///    per-window simulation, whose window events are scheduled a cycle
///    ahead, would. The service fixes one case itself: a pop that wakes a
///    parked service at W precedes every parked deposit landing at W.
///  - Pops and flushes go through take() and flush(); popping buffer()
///    directly does not wake a parked service, which then misses the slot.
///  - The provider is read ahead of the clock (up to one chunk, never past
///    its stable_until) and, while parked, for windows since the park. Its
///    answer for a time t must not change once given, except through
///    resync(), which the provider's owner calls before changing what the
///    provider will report.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "des/simulator.hpp"
#include "ent/buffer_pool.hpp"
#include "ent/link_params.hpp"
#include "ent/trace.hpp"
#include "obs/trace.hpp"

namespace dqcsim::ent {

/// How successful pairs are delivered.
enum class ServiceMode {
  Buffered,
  OnDemand,
};

/// Effective link parameters at one instant, as seen through an active
/// fault & drift scenario (the engine composes scenario::ScenarioRuntime
/// scales over the logical link's current route).
struct EffectiveLink {
  double p_succ = 1.0;  ///< per-attempt success probability right now
  double f0 = 0.99;     ///< fidelity a pair born right now would have
  bool up = true;       ///< false while any hop of the route is down
  /// The provider's answers are final for every time up to this instant
  /// (its owner will not resync() before then); never before the current
  /// time. A scan stops at it and resumes from an event at that instant,
  /// so the owner's own event there (scheduled earlier) runs first.
  des::SimTime stable_until = std::numeric_limits<double>::infinity();
};

/// Queried by the service for every attempt window (and at pre-fill).
/// Absent provider == stationary fabric.
using EffectiveProvider = std::function<EffectiveLink(des::SimTime)>;

/// Event-sparse generation service over one inter-node link.
class GenerationService {
 public:
  /// Called on pair availability. In OnDemand mode the return value
  /// indicates whether the pair was consumed on the spot (false = wasted);
  /// in Buffered mode it is ignored (the pair is already in the buffer).
  using ArrivalHandler = std::function<bool(des::SimTime)>;

  /// Windows evaluated per scan before a continuation event is scheduled
  /// on a stationary fabric, and under an effective provider (whose reads
  /// cost more): bounds the work spent ahead of the clock.
  static constexpr std::size_t kScanChunk = 1024;
  static constexpr std::size_t kProviderScanChunk = 256;

  /// The service schedules its events on `sim` and draws its window key
  /// from `rng`; both must outlive the service. `params` is validated on
  /// construction.
  GenerationService(des::Simulator& sim, const LinkParams& params, Rng& rng,
                    ServiceMode mode);

  /// Return the service to its just-constructed state with (possibly new)
  /// parameters: not started, empty buffer, cleared trace and counters, no
  /// arrival handler. Storage capacity is retained, so a same-configuration
  /// reset (the Monte-Carlo trial loop) performs no allocation.
  void reset(const LinkParams& params, ServiceMode mode);

  /// Begin attempting: draw the window key and schedule the first scan
  /// (see the file comment for the window grid). Idempotent once started.
  void start();

  /// Stop generating at the current time (see the file comment for which
  /// windows count). Already-scheduled deposits still land.
  void stop();

  /// Fill the buffer to capacity with fresh pairs at the current simulation
  /// time (the paper's init_buf pre-initialization).
  /// Precondition: Buffered mode.
  void pre_fill_buffer();

  void set_arrival_handler(ArrivalHandler handler) {
    handler_ = std::move(handler);
  }

  /// Install a time-varying effective-parameter source (see
  /// EffectiveProvider). It is read once per attempt window: drift takes
  /// effect window by window, and a down link pauses attempting (no attempt
  /// counted) while the windows stay on the phase grid, so generation
  /// resumes in phase on recovery. Cleared by reset().
  void set_effective_provider(EffectiveProvider provider) {
    provider_ = std::move(provider);
  }

  /// The provider is about to report differently for times after now:
  /// settle every window up to now under its current answers, then re-read
  /// later windows after the current event. No-op unless running.
  void resync();

  /// Trial-trace hook (see src/obs/): when set, runs of windows the service
  /// evaluated without per-window events are recorded as `skip` spans,
  /// parked intervals as `park` spans (both carrying window and success
  /// counts) and buffer deposits as instants on track `track` of `sink`.
  /// Pure observation — no RNG draw, no scheduled event, no parameter
  /// change — and cleared by reset(), so the engine re-arms it for each
  /// traced trial only.
  void set_trial_trace(obs::TraceBuffer* sink, std::uint32_t track) noexcept {
    obs_trace_ = sink;
    obs_track_ = track;
  }

  /// Consume one buffered pair now (see BufferPool::pop). A pop that frees
  /// a slot of a parked service wakes it.
  std::optional<BufferedPair> take(ConsumeOrder order);

  /// Drop every buffered pair now (see BufferPool::flush), waking a parked
  /// service. Returns how many were dropped.
  std::size_t flush();

  /// Read access to the pool. Pop and flush through take() and flush().
  BufferPool& buffer() noexcept { return buffer_; }
  const BufferPool& buffer() const noexcept { return buffer_; }
  const ArrivalTrace& trace() const noexcept { return trace_; }
  const LinkParams& params() const noexcept { return params_; }
  ServiceMode mode() const noexcept { return mode_; }

  /// Phase offset of pair p's attempt windows.
  double offset_of(int pair_index) const;

  // Lifetime counters, exact at sim.now() (see the file comment).
  std::size_t attempts() const { return tally().attempts; }
  std::size_t successes() const { return tally().successes; }
  /// Buffered-mode successes dropped because the pool was full.
  std::size_t wasted_buffer_full() const { return tally().wasted; }
  /// OnDemand-mode successes with no consumer at the heralding instant.
  std::size_t wasted_unconsumed() const noexcept { return wasted_unconsumed_; }
  /// Work counter: windows the service has evaluated one at a time in time
  /// order (scans and the walked parts of settles, see the file comment).
  /// Counter reads walk unsettled windows without counting them here.
  std::size_t windows_walked() const noexcept { return windows_walked_; }

  /// Longest gap between consecutive successful generations so far,
  /// extended to `now` for the open interval since the last success (the
  /// pre-success interval starts at start()). Feeds the obs registry's
  /// max_delivery_gap gauge. Always tracked — it never touches the RNG
  /// stream.
  double max_delivery_gap(des::SimTime now) const {
    if (!started_) return 0.0;
    const Tally t = tally();
    return std::max(t.max_gap, now - t.last_success);
  }

 private:
  /// One attempt window: round k of the pair in `slot` (slots order the
  /// pairs by first completion, so (round, slot) order is time order).
  struct Window {
    std::uint64_t round = 0;
    std::uint32_t slot = 0;
  };
  struct Outcome {
    bool up = false;
    bool success = false;
    double f0 = 0.0;
    double stable_until = 0.0;
  };
  /// Window counters: the settled ones, or as of sim.now() (settled ones
  /// plus windows not yet settled).
  struct Tally {
    std::size_t attempts = 0;
    std::size_t successes = 0;
    std::size_t wasted = 0;  ///< wasted_buffer_full
    double last_success = 0.0;
    double max_gap = 0.0;  ///< see max_delivery_gap

    void record_success(double at) noexcept {
      max_gap = std::max(max_gap, at - last_success);
      last_success = at;
    }
  };
  /// Windows and successes one bulk count covered.
  struct Bulk {
    std::size_t windows = 0;
    std::size_t successes = 0;
  };

  double time_of(const Window& w) const noexcept {
    return start_time_ + (first_[w.slot] + static_cast<double>(w.round) *
                                               params_.cycle_time);
  }
  void advance(Window& w) const noexcept {
    if (++w.slot == first_.size()) {
      w.slot = 0;
      ++w.round;
    }
  }
  /// Window `w` completing at `t`. kProvider: read the effective provider
  /// (the loops below are instantiated once per case, so the stationary
  /// fabric pays no per-window provider test).
  template <bool kProvider>
  Outcome evaluate(const Window& w, double t) const;
  /// Stationary fabric only: move `w` past failed windows, stopping at a
  /// success, at the first window completing after `until`, or after `max`
  /// windows. Returns how many windows it passed (all attempts).
  std::size_t skip_failures(Window& w, double until, std::size_t max) const;
  /// Stationary fabric only, `w` at the start of a round: count whole
  /// rounds into `out` without walking them, for as long as every window t
  /// of the round has t + lag < limit, and move `w` past them. Successes
  /// come from one integer compare per window; max_gap from each slot
  /// group's first and last success, visiting the successes between them
  /// only while the running max is below their span.
  Bulk count_rounds(Window& w, double lag, double limit, Tally& out) const;
  /// Completion time of the window before `w` (w must not be the first).
  double time_before(Window w) const noexcept {
    if (w.slot == 0) {
      w.slot = static_cast<std::uint32_t>(first_.size());
      --w.round;
    }
    --w.slot;
    return time_of(w);
  }
  Tally tally() const;
  template <bool kProvider>
  Tally tally_from_cursor() const;

  void scan();
  template <bool kProvider>
  void scan_windows();
  void schedule_run_event(double at, double t, std::uint32_t n, double f0);
  void on_run_event(std::uint32_t ticket, double t, std::uint32_t n,
                    double f0);
  void settle_run();
  void retire_chain(bool keep_offers);
  void settle_through(double until, bool stopping);
  template <bool kProvider>
  void settle_windows(double until, bool stopping);
  void schedule_replay(double t, std::uint32_t n, double f0);
  void land(std::uint32_t n, double f0);
  void offer(double t, std::uint32_t n);
  void park();
  void unpark();

  des::Simulator& sim_;
  LinkParams params_;
  Rng& rng_;
  ServiceMode mode_;
  BufferPool buffer_;
  ArrivalTrace trace_;
  ArrivalHandler handler_;
  EffectiveProvider provider_;
  obs::TraceBuffer* obs_trace_ = nullptr;
  std::uint32_t obs_track_ = 0;
  bool started_ = false;
  bool running_ = false;
  /// Bumped by reset(): events scheduled before a reset carry the old
  /// epoch and are ignored if the caller did not also reset the simulator.
  std::uint64_t epoch_ = 0;

  // Window grid, per slot (see Window).
  des::SimTime start_time_ = 0.0;
  std::vector<double> first_;         ///< first completion offset
  std::vector<KeyedStream> streams_;  ///< u(p, .) of the slot's pair
  /// KeyedStream::hash_ceiling(p_succ): a stationary window k of a slot
  /// succeeds iff the slot stream's hash(k) <= hash_ceiling_, which is
  /// exactly uniform(k) < p_succ.
  std::uint64_t hash_ceiling_ = 0;

  /// First window not yet settled into the counters below.
  Window cursor_;

  // The active chain: windows [cursor_, chain_end_) are evaluated, and one
  // pending event (ticket_) settles them. They hold run_attempts_ failed
  // attempts and then, if batch_ > 0, batch_ successes at batch_time_.
  bool chain_active_ = false;
  std::uint32_t ticket_ = 0;
  des::EventId chain_event_{};
  Window chain_end_;
  std::size_t run_windows_ = 0;
  std::size_t run_attempts_ = 0;
  std::uint32_t batch_ = 0;
  double batch_time_ = 0.0;
  double run_t0_ = 0.0;  ///< completion time of the run's first window
  double run_t1_ = 0.0;  ///< completion time of its last window

  // Parking (Buffered mode, full pool).
  bool parked_ = false;
  std::uint32_t wake_ticket_ = 0;
  double parked_since_ = 0.0;
  std::size_t park_windows_ = 0;
  std::size_t park_successes_ = 0;

  // Settled counters.
  Tally settled_;
  std::size_t wasted_unconsumed_ = 0;
  std::size_t windows_walked_ = 0;
};

}  // namespace dqcsim::ent
