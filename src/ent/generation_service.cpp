#include "ent/generation_service.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dqcsim::ent {

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
  // Invalidate any attempt/deposit events still scheduled on the simulator
  // from the previous run (harmless when the caller resets the simulator
  // too, as the trial loop does).
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
  attempts_ = 0;
  successes_ = 0;
  wasted_buffer_full_ = 0;
  wasted_unconsumed_ = 0;
  last_success_ = 0.0;
  max_delivery_gap_ = 0.0;
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
  // circuit starts: pair p's completions fall on offset(p) + k*cycle, and
  // the first one after t=now is scheduled (a zero offset completes after a
  // full cycle). Results are only *stored* from start() on, which keeps the
  // buffered designs distinct from init_buf's pre-filled buffer.
  last_success_ = sim_.now();
  for (int p = 0; p < params_.num_comm_pairs; ++p) {
    const double offset = offset_of(p);
    const double first = (offset > 0.0) ? offset : params_.cycle_time;
    schedule_completion(p, sim_.now() + first);
  }
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
}

void GenerationService::schedule_completion(int pair_index,
                                            des::SimTime completion) {
  sim_.schedule_at(completion, [this, pair_index, epoch = epoch_] {
    if (epoch == epoch_) on_window_complete(pair_index);
  });
}

// DQCSIM_HOT
void GenerationService::on_window_complete(int pair_index) {
  if (!running_) return;
  const des::SimTime now = sim_.now();

  // Under an active scenario, re-read the effective link parameters at this
  // window boundary. A down link pauses attempting — no attempt counted, no
  // RNG draw — but the completion chain stays on the phase grid, so
  // generation resumes in phase on recovery. Without a provider this path
  // is identical to the stationary service.
  double p_succ = params_.p_succ;
  double birth_f0 = params_.f0;
  bool up = true;
  if (provider_) {
    const EffectiveLink eff = provider_(now);
    p_succ = eff.p_succ;
    birth_f0 = eff.f0;
    up = eff.up;
  }

  if (up) {
    ++attempts_;
    const bool success = rng_.bernoulli(p_succ);
    if (obs_trace_ != nullptr) {
      obs_trace_->span(success ? obs::Ev::GenOk : obs::Ev::GenFail, obs_track_,
                       now - params_.cycle_time, now);
    }
    if (success) {
      ++successes_;
      record_success(now);
      if (mode_ == ServiceMode::Buffered) {
        // SWAP into the buffer; availability is delayed by the SWAP latency.
        sim_.schedule_in(params_.swap_latency,
                         [this, birth_f0, epoch = epoch_] {
                           if (epoch != epoch_) return;
                           const des::SimTime at = sim_.now();
                           if (buffer_.deposit(at, birth_f0)) {
                             if (obs_trace_ != nullptr) {
                               obs_trace_->instant(obs::Ev::Deposit,
                                                   obs_track_, at);
                             }
                             if (params_.record_trace) trace_.record(at);
                             if (handler_) handler_(at);
                           } else {
                             ++wasted_buffer_full_;
                           }
                         });
      } else {
        if (params_.record_trace) trace_.record(now);
        const bool consumed = handler_ ? handler_(now) : false;
        if (!consumed) ++wasted_unconsumed_;
      }
    }
  }
  schedule_completion(pair_index, now + params_.cycle_time);
}

}  // namespace dqcsim::ent
