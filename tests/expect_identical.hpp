/// \file expect_identical.hpp
/// \brief Shared gtest assertion for the bit-identity contract: two
/// AggregateResults agree exactly in every accumulator.

#pragma once

#include <gtest/gtest.h>

#include <iterator>

#include "common/stats.hpp"
#include "runtime/metrics.hpp"

namespace dqcsim::test_support {

/// Exact equality of one accumulator's count, moments, extrema and (when
/// enabled) its median and p99.
inline void expect_identical(const Accumulator& a, const Accumulator& b,
                             const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.stddev(), b.stddev()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
  ASSERT_EQ(a.histogram_enabled(), b.histogram_enabled()) << what;
  if (a.histogram_enabled() && a.count() > 0) {
    EXPECT_EQ(a.quantile(0.5), b.quantile(0.5)) << what;
    EXPECT_EQ(a.quantile(0.99), b.quantile(0.99)) << what;
  }
}

/// Every accumulator of `a` equals its counterpart in `b` exactly.
inline void expect_identical(const runtime::AggregateResult& a,
                             const runtime::AggregateResult& b) {
  using runtime::AggregateResult;
  struct Field {
    Accumulator AggregateResult::*member;
    const char* name;
  };
  static constexpr Field kFields[] = {
      {&AggregateResult::depth, "depth"},
      {&AggregateResult::fidelity, "fidelity"},
      {&AggregateResult::epr_wasted, "epr_wasted"},
      {&AggregateResult::epr_expired, "epr_expired"},
      {&AggregateResult::avg_pair_age, "avg_pair_age"},
      {&AggregateResult::avg_remote_wait, "avg_remote_wait"},
      {&AggregateResult::entanglement_swaps, "entanglement_swaps"},
      {&AggregateResult::avg_route_hops, "avg_route_hops"},
      {&AggregateResult::edges_shared, "edges_shared"},
      {&AggregateResult::max_edge_load, "max_edge_load"},
      {&AggregateResult::reroutes, "reroutes"},
      {&AggregateResult::outage_downtime, "outage_downtime"},
      {&AggregateResult::pairs_salvaged, "pairs_salvaged"},
      {&AggregateResult::pairs_discarded, "pairs_discarded"},
      {&AggregateResult::truncated, "truncated"},
      {&AggregateResult::events, "events"},
      {&AggregateResult::epr_attempts, "epr_attempts"},
      {&AggregateResult::epr_successes, "epr_successes"},
      {&AggregateResult::gen_windows_walked, "gen_windows_walked"},
  };
  // A new AggregateResult field must be added to the list above.
  static_assert(sizeof(AggregateResult) ==
                    std::size(kFields) * sizeof(Accumulator),
                "expect_identical does not cover every accumulator");
  for (const Field& f : kFields) {
    expect_identical(a.*f.member, b.*f.member, f.name);
  }
}

}  // namespace dqcsim::test_support
