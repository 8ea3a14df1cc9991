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

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>

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
};

/// Queried by the service at every attempt-window boundary (and at
/// pre-fill). Absent provider == stationary fabric.
using EffectiveProvider = std::function<EffectiveLink(des::SimTime)>;

/// Event-driven generation service over one inter-node link.
class GenerationService {
 public:
  /// Called on pair availability. In OnDemand mode the return value
  /// indicates whether the pair was consumed on the spot (false = wasted);
  /// in Buffered mode it is ignored (the pair is already in the buffer).
  using ArrivalHandler = std::function<bool(des::SimTime)>;

  /// The service schedules its events on `sim` and draws from `rng`; both
  /// must outlive the service. `params` is validated on construction.
  GenerationService(des::Simulator& sim, const LinkParams& params, Rng& rng,
                    ServiceMode mode);

  /// Return the service to its just-constructed state with (possibly new)
  /// parameters: not started, empty buffer, cleared trace and counters, no
  /// arrival handler. Storage capacity is retained, so a same-configuration
  /// reset (the Monte-Carlo trial loop) performs no allocation.
  void reset(const LinkParams& params, ServiceMode mode);

  /// Begin attempting: the first window of pair p completes at
  /// offset(p) + cycle_time. Idempotent once started.
  void start();

  /// Stop scheduling further attempt windows (already-scheduled completions
  /// still fire but do nothing).
  void stop() noexcept { running_ = false; }

  /// Fill the buffer to capacity with fresh pairs at the current simulation
  /// time (the paper's init_buf pre-initialization).
  /// Precondition: Buffered mode.
  void pre_fill_buffer();

  void set_arrival_handler(ArrivalHandler handler) {
    handler_ = std::move(handler);
  }

  /// Install a time-varying effective-parameter source (see
  /// EffectiveProvider). The provider is re-read at every attempt-window
  /// completion: drift takes effect at the next window boundary, and a
  /// down link pauses attempting (no attempt counted, no RNG draw) while
  /// the completion chain stays on the phase grid, so generation resumes
  /// in phase on recovery. Cleared by reset().
  void set_effective_provider(EffectiveProvider provider) {
    provider_ = std::move(provider);
  }

  /// Trial-trace hook (see src/obs/): when set, attempt-window outcomes
  /// are recorded as gen_ok/gen_fail spans and buffer deposits as instants
  /// on track `track` of `sink`. Pure observation — no RNG draw, no
  /// scheduled event, no parameter change — and cleared by reset(), so the
  /// engine re-arms it for each traced trial only.
  void set_trial_trace(obs::TraceBuffer* sink, std::uint32_t track) noexcept {
    obs_trace_ = sink;
    obs_track_ = track;
  }

  BufferPool& buffer() noexcept { return buffer_; }
  const BufferPool& buffer() const noexcept { return buffer_; }
  const ArrivalTrace& trace() const noexcept { return trace_; }
  const LinkParams& params() const noexcept { return params_; }
  ServiceMode mode() const noexcept { return mode_; }

  /// Phase offset of pair p's attempt windows.
  double offset_of(int pair_index) const;

  // Lifetime counters.
  std::size_t attempts() const noexcept { return attempts_; }
  std::size_t successes() const noexcept { return successes_; }
  /// Buffered-mode successes dropped because the pool was full.
  std::size_t wasted_buffer_full() const noexcept {
    return wasted_buffer_full_;
  }
  /// OnDemand-mode successes with no consumer at the heralding instant.
  std::size_t wasted_unconsumed() const noexcept { return wasted_unconsumed_; }

  /// Longest gap between consecutive successful generations so far,
  /// extended to `now` for the open interval since the last success (the
  /// pre-success interval starts at start()). Feeds the obs registry's
  /// max_delivery_gap gauge. Always tracked — it costs two compares per
  /// success and never touches the RNG stream.
  double max_delivery_gap(des::SimTime now) const noexcept {
    if (!started_) return 0.0;
    return std::max(max_delivery_gap_, now - last_success_);
  }

 private:
  void schedule_completion(int pair_index, des::SimTime completion);
  void on_window_complete(int pair_index);
  void record_success(des::SimTime at) noexcept {
    max_delivery_gap_ = std::max(max_delivery_gap_, at - last_success_);
    last_success_ = at;
  }

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
  std::size_t attempts_ = 0;
  std::size_t successes_ = 0;
  std::size_t wasted_buffer_full_ = 0;
  std::size_t wasted_unconsumed_ = 0;

  // Success-drought tracking (see max_delivery_gap).
  des::SimTime last_success_ = 0.0;
  double max_delivery_gap_ = 0.0;
};

}  // namespace dqcsim::ent
