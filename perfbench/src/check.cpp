#include "check.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

using dqcsim::Accumulator;
using dqcsim::runtime::AggregateResult;
using dqcsim::runtime::DesignKind;
using dqcsim::runtime::RunResult;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool identical(const Accumulator& a, const Accumulator& b) {
  if (a.count() != b.count() || !same_bits(a.mean(), b.mean()) ||
      !same_bits(a.variance(), b.variance()) ||
      !same_bits(a.min(), b.min()) || !same_bits(a.max(), b.max()) ||
      a.histogram_enabled() != b.histogram_enabled()) {
    return false;
  }
  if (!a.histogram_enabled()) return true;
  return same_bits(a.quantile(0.5), b.quantile(0.5)) &&
         same_bits(a.quantile(0.99), b.quantile(0.99));
}

/// |mean - reference| within kSigma standard errors of the difference.
/// The per-trial spread is the larger of the run's and the reference's: a
/// cell can be deterministic in every reference trial (sd 0) and still, on
/// rare seeds, produce a different trial.
bool near_reference(double mean, double n, double sd, double ref_mean,
                    double ref_sd, double ref_trials) {
  if (!(n > 0.0)) return false;
  const double se =
      std::max(sd, ref_sd) * std::sqrt(1.0 / n + 1.0 / ref_trials);
  return std::abs(mean - ref_mean) <= kSigma * se + 1e-9 * std::abs(ref_mean);
}

std::string fmt(double x) {
  std::ostringstream os;
  os.precision(10);
  os << x;
  return os.str();
}

}  // namespace

ReferenceTable load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open reference file " + path);
  ReferenceTable table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::string cell;
    Reference ref;
    if (!(fields >> workload >> cell >> ref.trials >> ref.depth_mean >>
          ref.depth_sd >> ref.fidelity_mean >> ref.fidelity_sd) ||
        ref.trials < 2) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    table[workload + "|" + cell] = ref;
  }
  if (table.empty()) throw std::runtime_error("empty reference file " + path);
  return table;
}

void check_cell(const std::string& cell, const AggregateResult& agg, int runs,
                double ideal_depth, CheckLog& log) {
  if (agg.depth.count() != static_cast<std::size_t>(runs)) {
    log.fail(cell + ": aggregate holds " + std::to_string(agg.depth.count()) +
             " trials, expected " + std::to_string(runs));
  }
  if (!(agg.fidelity.min() > 0.0) || !(agg.fidelity.max() <= 1.0)) {
    log.fail(cell + ": fidelity outside (0, 1]: min " +
             fmt(agg.fidelity.min()) + ", max " + fmt(agg.fidelity.max()));
  }
  if (!(agg.depth.min() >= ideal_depth)) {
    log.fail(cell + ": depth " + fmt(agg.depth.min()) +
             " below ideal depth " + fmt(ideal_depth));
  }
  if (agg.truncated.max() != 0.0) log.fail(cell + ": truncated trials");
}

void check_reference(const std::string& cell, const Accumulator& depth,
                     const Accumulator& fidelity, const Reference* ref,
                     CheckLog& log) {
  if (ref == nullptr) {
    log.fail(cell + ": no reference values");
    return;
  }
  const auto n = static_cast<double>(depth.count());
  if (!near_reference(depth.mean(), n, depth.stddev(), ref->depth_mean,
                      ref->depth_sd, ref->trials)) {
    log.fail(cell + ": mean depth " + fmt(depth.mean()) + " over " +
             fmt(n) + " trials off reference " + fmt(ref->depth_mean));
  }
  // A heavy-tailed fidelity (long chains, outages: per-trial fidelity
  // spans orders of magnitude) has no usable standard error of its mean;
  // only cells whose per-trial spread is at most the mean are compared.
  if (ref->fidelity_sd <= kMaxFidelityCv * ref->fidelity_mean &&
      !near_reference(fidelity.mean(), n, fidelity.stddev(),
                      ref->fidelity_mean, ref->fidelity_sd, ref->trials)) {
    log.fail(cell + ": mean fidelity " + fmt(fidelity.mean()) + " over " +
             fmt(n) + " trials off reference " + fmt(ref->fidelity_mean));
  }
}

std::size_t prefilled_pairs(const dqcsim::runtime::ArchConfig& config,
                            DesignKind design) {
  if (!dqcsim::runtime::design_uses_prefill(design)) return 0;
  const auto nodes = static_cast<std::size_t>(config.num_nodes);
  return nodes * (nodes - 1) / 2 *
         static_cast<std::size_t>(config.buffer_per_node);
}

void check_trial(const std::string& cell, const RunResult& run,
                 double ideal_depth, std::size_t prefilled, CheckLog& log) {
  if (!(run.fidelity > 0.0) || !(run.fidelity <= 1.0)) {
    log.fail(cell + ": trial fidelity " + fmt(run.fidelity) +
             " outside (0, 1]");
  }
  if (!(run.depth >= ideal_depth)) {
    log.fail(cell + ": trial depth " + fmt(run.depth) + " below ideal " +
             fmt(ideal_depth));
  }
  if (run.epr_consumed > run.epr_successes + prefilled ||
      run.epr_successes > run.epr_attempts) {
    log.fail(cell + ": pair counts out of order: consumed " +
             std::to_string(run.epr_consumed) + ", successes " +
             std::to_string(run.epr_successes) + ", attempts " +
             std::to_string(run.epr_attempts));
  }
  if (run.truncated) log.fail(cell + ": trial truncated");
}

bool identical(const AggregateResult& a, const AggregateResult& b) {
  const Accumulator AggregateResult::*fields[] = {
      &AggregateResult::depth,           &AggregateResult::fidelity,
      &AggregateResult::epr_wasted,      &AggregateResult::epr_expired,
      &AggregateResult::avg_pair_age,    &AggregateResult::avg_remote_wait,
      &AggregateResult::entanglement_swaps,
      &AggregateResult::avg_route_hops,  &AggregateResult::reroutes,
      &AggregateResult::outage_downtime, &AggregateResult::pairs_salvaged,
      &AggregateResult::pairs_discarded, &AggregateResult::truncated};
  for (const auto field : fields) {
    if (!identical(a.*field, b.*field)) return false;
  }
  return true;
}

void check_paper_order(const std::string& instance,
                       const std::vector<DesignKind>& designs,
                       const std::vector<double>& depth_means, CheckLog& log) {
  const auto depth = [&](DesignKind d) {
    for (std::size_t i = 0; i < designs.size(); ++i) {
      if (designs[i] == d) return depth_means[i];
    }
    return std::nan("");
  };
  const double original = depth(DesignKind::Original);
  const double sync = depth(DesignKind::SyncBuf);
  const double async = depth(DesignKind::AsyncBuf);
  const double init = depth(DesignKind::InitBuf);
  if (!(original > sync && sync > async)) {
    log.fail(instance + ": depth order original > sync_buf > async_buf "
             "violated (" + fmt(original) + ", " + fmt(sync) + ", " +
             fmt(async) + ")");
  }
  if (!(init < async)) {
    log.fail(instance + ": depth order init_buf < async_buf violated (" +
             fmt(init) + ", " + fmt(async) + ")");
  }
}

AggregateResult fold(const std::vector<RunResult>& runs) {
  AggregateResult agg;
  for (const RunResult& run : runs) agg.add(run);
  return agg;
}

std::size_t self_test(const std::string& workload, const std::string& cell,
                      const std::vector<RunResult>& trials,
                      double ideal_depth, std::size_t prefilled,
                      const ReferenceTable& refs, CheckLog& log) {
  std::size_t caught = 0;
  const auto expect_caught = [&](const char* what, bool was_caught) {
    if (was_caught) {
      ++caught;
    } else {
      log.fail(std::string("self-test: check missed ") + what);
    }
  };
  const auto it = refs.find(workload + "|" + cell);
  const Reference* ref = it == refs.end() ? nullptr : &it->second;
  const int runs = static_cast<int>(trials.size());
  const auto cell_fails = [&](const std::vector<RunResult>& corrupted) {
    CheckLog probe;
    const AggregateResult agg = fold(corrupted);
    check_cell(cell, agg, runs, ideal_depth, probe);
    check_reference(cell, agg.depth, agg.fidelity, ref, probe);
    for (const RunResult& run : corrupted) {
      check_trial(cell, run, ideal_depth, prefilled, probe);
    }
    return !probe.ok();
  };
  if (trials.empty() || ref == nullptr) {
    log.fail("self-test: no trials or reference for " + cell);
    return caught;
  }
  if (cell_fails(trials)) log.fail("self-test: real results fail the check");

  std::vector<RunResult> bad = trials;
  bad[0].fidelity = 1.0 + 1e-9;
  expect_caught("fidelity above 1", cell_fails(bad));

  bad = trials;
  bad[0].depth = ideal_depth * (1.0 - 1e-9);
  expect_caught("depth below ideal", cell_fails(bad));

  bad = trials;
  bad[0].truncated = true;
  expect_caught("a truncated trial", cell_fails(bad));

  bad = trials;
  bad[0].epr_consumed = bad[0].epr_successes + prefilled + 1;
  expect_caught("consumed above successes", cell_fails(bad));

  bad = trials;
  for (RunResult& run : bad) run.depth += 10.0 * kSigma * ref->depth_sd;
  expect_caught("mean depth far off reference", cell_fails(bad));

  // One trial of the "parallel" run came out different from the serial one.
  bad = trials;
  bad.back().depth += 0.5;
  expect_caught("mismatched thread-count aggregates",
                !identical(fold(trials), fold(bad)));

  // Depth order on reference means of a paper-grid benchmark, real and
  // with original and async_buf swapped.
  const std::vector<DesignKind> designs = dqcsim::runtime::all_designs();
  std::vector<double> means;
  for (const DesignKind d : designs) {
    const auto r = refs.find("paper_grid|QFT-32/" +
                             dqcsim::runtime::design_name(d));
    means.push_back(r == refs.end() ? std::nan("") : r->second.depth_mean);
  }
  CheckLog real_order;
  check_paper_order("QFT-32", designs, means, real_order);
  if (!real_order.ok()) log.fail("self-test: reference order fails check");
  const auto index_of = [&](DesignKind d) {
    return static_cast<std::size_t>(
        std::find(designs.begin(), designs.end(), d) - designs.begin());
  };
  std::swap(means[index_of(DesignKind::Original)],
            means[index_of(DesignKind::AsyncBuf)]);
  CheckLog flipped;
  check_paper_order("QFT-32", designs, means, flipped);
  expect_caught("flipped original/async_buf order", !flipped.ok());
  return caught;
}

}  // namespace perfbench
