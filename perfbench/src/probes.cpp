#include "probes.hpp"

#include "common/rng.hpp"
#include "des/simulator.hpp"
#include "driver.hpp"
#include "ent/generation_service.hpp"
#include "net/router.hpp"
#include "noise/teleport_fidelity.hpp"
#include "util.hpp"

namespace perfbench {

namespace {

// Sim-time horizon of one generation-probe repetition (time units of one
// local CNOT): a few hundred thousand attempt windows on the default links.
constexpr double kGenerationHorizon = 200000.0;
// Events dispatched per des-churn repetition.
constexpr std::size_t kChurnEvents = 400000;

/// Keep the compiler from discarding a probe's result.
void keep(double x) {
  static volatile double sink = 0.0;
  sink = sink + x;
}

}  // namespace

double probe_teleport_model_ms(const dqcsim::runtime::ArchConfig& config,
                               int reps, ProbeTrace pt) {
  const dqcsim::noise::TeleportNoiseParams params = teleport_params(config);
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const ScopedSpan span(pt.tracer, pt.trace, 0, Layer::Noise,
                          "noise.teleport_model_probe");
    const std::uint64_t t0 = now_ns();
    const dqcsim::noise::TeleportFidelityModel model(params);
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    keep(model.slope());
  }
  return median(ms);
}

GenerationProbe probe_generation(const dqcsim::runtime::ArchConfig& config,
                                 dqcsim::runtime::DesignKind design,
                                 std::uint64_t seed, int reps, ProbeTrace pt) {
  dqcsim::ent::LinkParams params;
  if (config.topology) {
    const dqcsim::net::TopologyEdge& edge = config.topology->edge(0);
    params = config.link_params(design, edge.a, edge.b);
  } else {
    params = config.link_params(design);
  }
  params.record_trace = false;
  std::vector<double> ns;
  GenerationProbe probe;
  for (int r = 0; r < reps; ++r) {
    const ScopedSpan span(pt.tracer, pt.trace, 0, Layer::Ent,
                          "ent.generation_probe");
    dqcsim::des::Simulator sim;
    dqcsim::Rng rng(seed + static_cast<std::uint64_t>(r));
    dqcsim::ent::GenerationService service(sim, params, rng,
                                           dqcsim::ent::ServiceMode::Buffered);
    const std::uint64_t t0 = now_ns();
    service.start();
    sim.run_until(kGenerationHorizon);
    const double elapsed = static_cast<double>(now_ns() - t0);
    const auto attempts = static_cast<double>(service.attempts());
    ns.push_back(elapsed / attempts);
    probe.events_per_window =
        static_cast<double>(sim.executed_events()) / attempts;
  }
  probe.window_ns = median(ns);
  return probe;
}

double probe_des_event_ns(std::uint64_t seed, int reps, ProbeTrace pt) {
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    const ScopedSpan span(pt.tracer, pt.trace, 0, Layer::Des,
                          "des.churn_probe");
    dqcsim::des::Simulator sim;
    dqcsim::Rng rng(seed + static_cast<std::uint64_t>(r));
    std::size_t remaining = kChurnEvents;
    // Each event reschedules itself after a uniform delay, keeping 64
    // events pending: the steady state of the engine's generation chains.
    struct Chain {
      dqcsim::des::Simulator* sim;
      dqcsim::Rng* rng;
      std::size_t* remaining;
      void operator()() const {
        if (*remaining == 0) return;
        --*remaining;
        sim->schedule_in(rng->uniform(0.5, 1.5), *this);
      }
    };
    for (int i = 0; i < 64; ++i) {
      sim.schedule_at(rng.uniform(0.0, 1.0), Chain{&sim, &rng, &remaining});
    }
    const std::uint64_t t0 = now_ns();
    const std::size_t events = sim.run();
    ns.push_back(static_cast<double>(now_ns() - t0) /
                 static_cast<double>(events));
  }
  return median(ns);
}

double probe_router_build_ms(
    const std::vector<dqcsim::net::Topology>& topologies, int reps,
    ProbeTrace pt) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const ScopedSpan span(pt.tracer, pt.trace, 0, Layer::Net,
                          "net.router_probe");
    const std::uint64_t t0 = now_ns();
    for (const dqcsim::net::Topology& topology : topologies) {
      const dqcsim::net::Router router(topology);
      keep(static_cast<double>(router.hop_distance(0, 1)));
    }
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  return median(ms);
}

}  // namespace perfbench
