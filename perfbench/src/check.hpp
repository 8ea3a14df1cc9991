/// \file check.hpp
/// \brief The benchmark's output check and its self-test.
///
/// Asserts only what holds for the unchanged simulator at every seed:
///  - per trial: 0 < fidelity <= 1, depth >= ideal depth, not truncated
///    (per cell through the aggregate extrema, per trial on the check call)
///    and successes <= attempts, consumed <= successes + the pairs the
///    buffers were pre-filled with (init_buf consumes those without
///    generating them);
///  - thread-count invariance: the same calls at two thread counts give
///    bit-identical aggregates;
///  - each cell's mean depth and (where it is not heavy-tailed) mean
///    fidelity, pooled over every pass of the run, lie within kSigma
///    standard errors of the reference values in perfbench/reference.tsv;
///  - on the paper grid, on the pooled means: depth original > sync_buf >
///    async_buf and init_buf < async_buf. No ordering between async_buf and
///    adapt_buf and no fidelity ordering among buffered designs is
///    asserted: neither holds at every seed.

#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "runtime/arch_config.hpp"
#include "runtime/design.hpp"
#include "runtime/metrics.hpp"

namespace perfbench {

/// Reference mean and per-trial standard deviation of one cell, measured on
/// `trials` trials at seeds disjoint from any benchmark seed.
struct Reference {
  double trials = 0.0;
  double depth_mean = 0.0;
  double depth_sd = 0.0;
  double fidelity_mean = 0.0;
  double fidelity_sd = 0.0;
};

/// Keyed by "<workload>|<cell>".
using ReferenceTable = std::map<std::string, Reference>;

/// Tolerance of the reference comparison, in standard errors of the
/// difference between the cell mean and the reference mean (per-trial
/// spread: the larger of the run's and the reference's).
inline constexpr double kSigma = 6.0;

/// Fidelity means are compared only on cells whose reference per-trial
/// standard deviation is at most this multiple of the reference mean.
inline constexpr double kMaxFidelityCv = 1.0;

/// Parse perfbench/reference.tsv; throws std::runtime_error on a bad file.
ReferenceTable load_reference(const std::string& path);

/// Collected check failures.
struct CheckLog {
  std::vector<std::string> failures;
  void fail(const std::string& what) { failures.push_back(what); }
  bool ok() const { return failures.empty(); }
};

/// Per-trial invariants of one cell's aggregate over `runs` trials, read
/// off its extrema.
void check_cell(const std::string& cell,
                const dqcsim::runtime::AggregateResult& agg, int runs,
                double ideal_depth, CheckLog& log);

/// Pooled mean depth and fidelity of a cell against its reference (`ref`
/// null means the reference is missing).
void check_reference(const std::string& cell, const dqcsim::Accumulator& depth,
                     const dqcsim::Accumulator& fidelity, const Reference* ref,
                     CheckLog& log);

/// Upper bound on the pairs a trial's buffers start with: 0 unless the
/// design pre-fills them.
std::size_t prefilled_pairs(const dqcsim::runtime::ArchConfig& config,
                            dqcsim::runtime::DesignKind design);

/// Invariants of one trial; `prefilled` from prefilled_pairs.
void check_trial(const std::string& cell,
                 const dqcsim::runtime::RunResult& run, double ideal_depth,
                 std::size_t prefilled, CheckLog& log);

/// Bit-for-bit equality of two aggregates.
bool identical(const dqcsim::runtime::AggregateResult& a,
               const dqcsim::runtime::AggregateResult& b);

/// Paper depth ordering over one benchmark's designs (`depth_means[i]`
/// belongs to `designs[i]`).
void check_paper_order(const std::string& instance,
                       const std::vector<dqcsim::runtime::DesignKind>& designs,
                       const std::vector<double>& depth_means, CheckLog& log);

/// Fold per-trial results into an aggregate in run order, as the driver
/// does.
dqcsim::runtime::AggregateResult fold(
    const std::vector<dqcsim::runtime::RunResult>& runs);

/// Feed the check corrupted copies of real results (fidelity above 1,
/// depth below ideal, a truncated trial, consumed above successes plus
/// pre-fill, mismatched thread-count aggregates, a mean far off its
/// reference, and a flipped original/async_buf depth order) and log a
/// failure for every corruption it misses, or if the real results fail.
/// `trials` are the check cell's per-trial results. Returns the number of
/// corruptions caught (of kSelfTestCases).
inline constexpr std::size_t kSelfTestCases = 7;
std::size_t self_test(const std::string& workload, const std::string& cell,
                      const std::vector<dqcsim::runtime::RunResult>& trials,
                      double ideal_depth, std::size_t prefilled,
                      const ReferenceTable& refs, CheckLog& log);

}  // namespace perfbench
