/// Unit tests for workload generators: regular graphs, QFT, QAOA, TLIM,
/// the frozen benchmark suite (paper Table I structure), and functional
/// validation of the generated circuits on the exact density-matrix
/// simulator (QFT against the exact DFT).

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gen/benchmarks.hpp"
#include "gen/qaoa.hpp"
#include "gen/qft.hpp"
#include "gen/regular_graph.hpp"
#include "gen/tlim.hpp"
#include "qsim/density_matrix.hpp"

namespace dqcsim::gen {
namespace {

// --------------------------------------------------------- regular graph ----

struct RegularCase {
  int n;
  int d;
};

class RegularGraphTest : public ::testing::TestWithParam<RegularCase> {};

TEST_P(RegularGraphTest, ProducesSimpleRegularGraph) {
  const auto [n, d] = GetParam();
  Rng rng(1234);
  const EdgeList g = random_regular_graph(n, d, rng);
  EXPECT_EQ(g.num_vertices, n);
  EXPECT_EQ(g.edges.size(), static_cast<std::size_t>(n) *
                                static_cast<std::size_t>(d) / 2);
  EXPECT_TRUE(is_simple_regular(g, d));
}

INSTANTIATE_TEST_SUITE_P(
    Degrees, RegularGraphTest,
    ::testing::Values(RegularCase{8, 3}, RegularCase{32, 4}, RegularCase{32, 8},
                      RegularCase{64, 4}, RegularCase{64, 8},
                      RegularCase{16, 15},  // complete graph corner case
                      RegularCase{10, 2}),
    [](const ::testing::TestParamInfo<RegularCase>& tp) {
      return "n" + std::to_string(tp.param.n) + "d" +
             std::to_string(tp.param.d);
    });

TEST(RegularGraph, DeterministicForFixedSeed) {
  Rng a(99), b(99);
  const EdgeList g1 = random_regular_graph(32, 8, a);
  const EdgeList g2 = random_regular_graph(32, 8, b);
  EXPECT_EQ(g1.edges, g2.edges);
}

TEST(RegularGraph, DifferentSeedsDifferentGraphs) {
  Rng a(1), b(2);
  const EdgeList g1 = random_regular_graph(32, 4, a);
  const EdgeList g2 = random_regular_graph(32, 4, b);
  EXPECT_NE(g1.edges, g2.edges);
}

TEST(RegularGraph, RejectsImpossibleParameters) {
  Rng rng(1);
  EXPECT_THROW(random_regular_graph(5, 3, rng), PreconditionError);  // odd nd
  EXPECT_THROW(random_regular_graph(4, 4, rng), PreconditionError);  // d >= n
  EXPECT_THROW(random_regular_graph(4, 0, rng), PreconditionError);
}

TEST(RegularGraph, EdgesAreCanonicalAndSorted) {
  Rng rng(7);
  const EdgeList g = random_regular_graph(16, 4, rng);
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    EXPECT_LT(g.edges[i].first, g.edges[i].second);
    if (i > 0) {
      EXPECT_LT(g.edges[i - 1], g.edges[i]);
    }
  }
}

TEST(RegularGraph, IsSimpleRegularDetectsViolations) {
  EdgeList bad;
  bad.num_vertices = 3;
  bad.edges = {{0, 0}};
  EXPECT_FALSE(is_simple_regular(bad, 1));  // self loop
  bad.edges = {{0, 1}, {0, 1}};
  EXPECT_FALSE(is_simple_regular(bad, 2));  // duplicate
  bad.edges = {{0, 1}};
  EXPECT_FALSE(is_simple_regular(bad, 1));  // vertex 2 has degree 0
}

// -------------------------------------------------------------------- QFT ----

TEST(Qft, GateCountsMatchFormula) {
  for (int n : {1, 2, 8, 32}) {
    const Circuit qc = make_qft(n);
    EXPECT_EQ(qc.num_qubits(), n);
    EXPECT_EQ(qc.count_1q(), static_cast<std::size_t>(n));
    const auto un = static_cast<std::size_t>(n);
    EXPECT_EQ(qc.count_2q(), un * (un - 1) / 2);
  }
}

TEST(Qft, DepthIs2nMinus1) {
  // Known property of the list-scheduled textbook QFT on all-to-all
  // hardware; the paper's Table I reports 63 for QFT-32.
  EXPECT_EQ(make_qft(32).unit_depth(), 63u);
  EXPECT_EQ(make_qft(8).unit_depth(), 15u);
}

TEST(Qft, AnglesHalveWithDistance) {
  const Circuit qc = make_qft(4);
  // First CP gate after H(0) is CP(q1, q0, pi/2); next CP(q2, q0, pi/4).
  EXPECT_EQ(qc.gate(1).kind, GateKind::CP);
  EXPECT_NEAR(qc.gate(1).param, std::numbers::pi / 2.0, 1e-12);
  EXPECT_NEAR(qc.gate(2).param, std::numbers::pi / 4.0, 1e-12);
}

TEST(Qft, RotationAnglesAreBitIdenticalToPowFormula) {
  // Regression guard for the std::pow -> std::ldexp rewrite in make_qft.
  // ldexp scales by a power of two exactly, and pow(2.0, k) is exact for
  // the small integer exponents a QFT uses, so every rotation angle must
  // equal the historical pi / 2^(j-i) value bit for bit (exact ==, not
  // EXPECT_NEAR): the rewrite removes libm variance without changing a
  // single result bit.
  const int n = 16;
  const Circuit qc = make_qft(n);
  std::size_t g = 0;
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(qc.gate(g).kind, GateKind::H);
    ++g;
    for (int j = i + 1; j < n; ++j, ++g) {
      ASSERT_EQ(qc.gate(g).kind, GateKind::CP);
      const double dist = static_cast<double>(j - i);
      const double pow_formula = std::numbers::pi / std::pow(2.0, dist);
      EXPECT_EQ(qc.gate(g).param, pow_formula)
          << "angle drifted at i=" << i << " j=" << j;
      EXPECT_EQ(qc.gate(g).param, std::ldexp(std::numbers::pi, -(j - i)));
    }
  }
  EXPECT_EQ(g, qc.num_gates());
}

TEST(Qft, RejectsZeroQubits) {
  EXPECT_THROW(make_qft(0), PreconditionError);
}

// ------------------------------------------------------------------- QAOA ----

TEST(Qaoa, GateCountsMatchGraph) {
  Rng rng(5);
  const EdgeList g = random_regular_graph(32, 4, rng);
  const Circuit qc = make_qaoa_maxcut(g);
  // n Hadamards + n RX per layer; |E| RZZ per layer (p = 1).
  EXPECT_EQ(qc.count_1q(), 64u);
  EXPECT_EQ(qc.count_2q(), 64u);
}

TEST(Qaoa, MultiLayerScalesCounts) {
  Rng rng(5);
  const EdgeList g = random_regular_graph(16, 4, rng);
  QaoaParams params;
  params.layers = 3;
  const Circuit qc = make_qaoa_maxcut(g, params);
  EXPECT_EQ(qc.count_1q(), 16u + 3u * 16u);
  EXPECT_EQ(qc.count_2q(), 3u * g.edges.size());
}

TEST(Qaoa, UsesConfiguredAngles) {
  Rng rng(5);
  const EdgeList g = random_regular_graph(8, 2, rng);
  QaoaParams params;
  params.gamma = 0.5;
  params.beta = 0.25;
  const Circuit qc = make_qaoa_maxcut(g, params);
  bool saw_rzz = false, saw_rx = false;
  for (const Gate& gate : qc.gates()) {
    if (gate.kind == GateKind::RZZ) {
      EXPECT_DOUBLE_EQ(gate.param, 1.0);  // 2 * gamma
      saw_rzz = true;
    }
    if (gate.kind == GateKind::RX) {
      EXPECT_DOUBLE_EQ(gate.param, 0.5);  // 2 * beta
      saw_rx = true;
    }
  }
  EXPECT_TRUE(saw_rzz);
  EXPECT_TRUE(saw_rx);
}

TEST(Qaoa, RegularConvenienceNamesCircuit) {
  Rng rng(6);
  const Circuit qc = make_qaoa_regular(32, 8, rng);
  EXPECT_EQ(qc.name(), "QAOA-r8-32");
}

// ------------------------------------------------------------------- TLIM ----

TEST(Tlim, GateCountsMatchChainAndSteps) {
  const Circuit qc = make_tlim(32);  // 10 steps default
  EXPECT_EQ(qc.count_2q(), 310u);    // 31 bonds x 10 steps (paper: 300+10)
  EXPECT_EQ(qc.count_1q(), 640u);    // (32 RZ + 32 RX) x 10 steps
}

TEST(Tlim, UnitDepthIsFourPerStep) {
  // Brick RZZ (2 layers) + RZ layer + RX layer = 4 unit layers per step;
  // the paper's Table I reports depth 40 for 10 steps.
  EXPECT_EQ(make_tlim(32).unit_depth(), 40u);
  TlimParams params;
  params.steps = 3;
  EXPECT_EQ(make_tlim(8, params).unit_depth(), 12u);
}

TEST(Tlim, OnlyNearestNeighborCoupling) {
  const Circuit qc = make_tlim(16);
  for (const Gate& g : qc.gates()) {
    if (g.arity() == 2) {
      EXPECT_EQ(std::abs(g.q1() - g.q0()), 1) << g.to_string();
    }
  }
}

TEST(Tlim, RejectsDegenerateInputs) {
  EXPECT_THROW(make_tlim(1), PreconditionError);
  TlimParams params;
  params.steps = 0;
  EXPECT_THROW(make_tlim(8, params), PreconditionError);
}

// ------------------------------------------------------------- benchmarks ----

TEST(Benchmarks, SuiteMatchesPaperOrder) {
  const auto suite = all_benchmarks();
  ASSERT_EQ(suite.size(), 6u);
  EXPECT_EQ(benchmark_name(suite[0]), "TLIM-32");
  EXPECT_EQ(benchmark_name(suite[3]), "QFT-32");
  EXPECT_EQ(benchmark_name(suite[5]), "QAOA-r8-64");
}

TEST(Benchmarks, QubitCounts) {
  for (const auto id : all_benchmarks()) {
    const Circuit qc = make_benchmark(id);
    EXPECT_EQ(qc.num_qubits(), benchmark_qubits(id)) << benchmark_name(id);
  }
}

TEST(Benchmarks, DeterministicConstruction) {
  const Circuit a = make_benchmark(BenchmarkId::QAOA_R8_32);
  const Circuit b = make_benchmark(BenchmarkId::QAOA_R8_32);
  ASSERT_EQ(a.num_gates(), b.num_gates());
  for (std::size_t i = 0; i < a.num_gates(); ++i) {
    EXPECT_EQ(a.gate(i), b.gate(i));
  }
}

TEST(Benchmarks, TwoQubitGateTotalsMatchStructure) {
  // Structural counts that must hold exactly (cf. paper Table I).
  EXPECT_EQ(make_benchmark(BenchmarkId::QFT_32).count_2q(), 496u);
  EXPECT_EQ(make_benchmark(BenchmarkId::TLIM_32).count_2q(), 310u);
  EXPECT_EQ(make_benchmark(BenchmarkId::QAOA_R4_32).count_2q(), 64u);
  EXPECT_EQ(make_benchmark(BenchmarkId::QAOA_R8_32).count_2q(), 128u);
  EXPECT_EQ(make_benchmark(BenchmarkId::QAOA_R4_64).count_2q(), 128u);
  EXPECT_EQ(make_benchmark(BenchmarkId::QAOA_R8_64).count_2q(), 256u);
}

TEST(Benchmarks, The32QSubset) {
  const auto subset = benchmarks_32q();
  ASSERT_EQ(subset.size(), 4u);
  for (const auto id : subset) EXPECT_EQ(benchmark_qubits(id), 32);
}

// ------------------------------------------------ functional validation ----
// Generated circuits run gate by gate on the exact density-matrix simulator;
// unitary gates keep a pure input pure, so rho = |psi><psi| throughout.

using qsim::Complex;
using qsim::DensityMatrix;

std::vector<Complex> basis_state(int num_qubits, std::size_t k) {
  std::vector<Complex> amps(std::size_t{1} << num_qubits, Complex{0, 0});
  amps[k] = Complex{1, 0};
  return amps;
}

DensityMatrix run_pure(const Circuit& qc, const std::vector<Complex>& input) {
  DensityMatrix rho(input);
  for (const Gate& g : qc.gates()) rho.apply_gate(g);
  return rho;
}

/// Exact output of make_qft on basis state |k>: the discrete Fourier
/// transform with amplitudes exp(2*pi*i*j*rev(k)/2^n)/sqrt(2^n), where
/// rev() bit-reverses k — make_qft omits the final SWAP network and the
/// basis indexing is little-endian, which folds the reversal onto the
/// input index.
std::vector<Complex> qft_reference_state(int num_qubits, std::size_t k) {
  const std::size_t dim = std::size_t{1} << num_qubits;
  const double inv_sqrt = 1.0 / std::sqrt(static_cast<double>(dim));
  std::size_t k_rev = 0;
  for (int b = 0; b < num_qubits; ++b) {
    if (k & (std::size_t{1} << b)) {
      k_rev |= std::size_t{1} << (num_qubits - 1 - b);
    }
  }
  std::vector<Complex> amps(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    const double phase = 2.0 * std::numbers::pi * static_cast<double>(j) *
                         static_cast<double>(k_rev) /
                         static_cast<double>(dim);
    amps[j] = Complex{std::cos(phase), std::sin(phase)} * inv_sqrt;
  }
  return amps;
}

class QftFunctional : public ::testing::TestWithParam<int> {};

TEST_P(QftFunctional, MatchesExactDftOnAllBasisStates) {
  const int n = GetParam();
  const Circuit qft = make_qft(n);
  for (std::size_t k = 0; k < (std::size_t{1} << n); ++k) {
    const DensityMatrix rho = run_pure(qft, basis_state(n, k));
    ASSERT_NEAR(rho.fidelity_with_pure(qft_reference_state(n, k)), 1.0, 1e-9)
        << "QFT-" << n << " on basis state " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, QftFunctional, ::testing::Values(1, 2, 3, 4,
                                                                  5, 6));

TEST(QftFunctional, SuperpositionInput) {
  // Linearity check: QFT of (|0> + |3>)/sqrt(2) on 3 qubits.
  const int n = 3;
  std::vector<Complex> input(8, Complex{0, 0});
  input[0] = Complex{1, 0};
  input[3] = Complex{1, 0};
  const DensityMatrix rho = run_pure(make_qft(n), input);

  const std::vector<Complex> r0 = qft_reference_state(n, 0);
  const std::vector<Complex> r3 = qft_reference_state(n, 3);
  std::vector<Complex> expected(8);
  for (std::size_t i = 0; i < 8; ++i) {
    expected[i] = (r0[i] + r3[i]) / std::sqrt(2.0);
  }
  EXPECT_NEAR(rho.fidelity_with_pure(expected), 1.0, 1e-9);
}

TEST(TlimFunctional, TrotterStepPreservesNormAndActs) {
  TlimParams params;
  params.steps = 2;
  const Circuit qc = make_tlim(6, params);
  const DensityMatrix rho = run_pure(qc, basis_state(6, 0));
  EXPECT_NEAR(rho.trace(), 1.0, 1e-9);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-9);
  // The transverse field must move population out of |000000>.
  EXPECT_LT(rho.element(0, 0).real(), 0.999);
}

TEST(QaoaFunctional, PlusStateIsUniformAfterHLayer) {
  Rng rng(3);
  const Circuit qc = make_qaoa_regular(6, 2, rng);
  const DensityMatrix rho = run_pure(qc, basis_state(6, 0));
  EXPECT_NEAR(rho.trace(), 1.0, 1e-9);
  // QAOA output magnitudes are symmetric under global bit flip for MaxCut
  // (Z2 symmetry of the cost Hamiltonian and the mixer).
  const std::size_t dim = rho.dim();
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(rho.element(i, i).real(),
                rho.element(dim - 1 - i, dim - 1 - i).real(), 1e-9);
  }
}

}  // namespace
}  // namespace dqcsim::gen
