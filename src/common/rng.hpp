/// \file rng.hpp
/// \brief Deterministic pseudo-random number generation for simulations.
///
/// All stochastic components of dqcsim (entanglement-generation success,
/// workload generation, partitioner tie-breaking) draw from this generator so
/// that every experiment is reproducible from a single 64-bit seed.
/// The engine is xoshiro256** (Blackman & Vigna), seeded via splitmix64.

#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace dqcsim {

/// Version of the simulator's random draw stream. Every seeded result
/// (depths, fidelities, counters) is a function of the seed *and* of this
/// format; it is bumped whenever the stream changes on purpose, and bench
/// reports record it so a baseline of another format is refused as a whole
/// instead of counter by counter. Format 1 drew one Bernoulli per
/// generation attempt window from the trial's stream; format 2 draws one
/// key per generation service and derives each window's outcome from it
/// (KeyedStream), so a window's outcome no longer depends on how many
/// windows the simulator visited before it.
inline constexpr int kReplayFormat = 2;

/// splitmix64 finalizer: a bijective 64-bit mix (Steele, Lea & Flood 2014).
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Counter-based uniform draws: value `index` of stream `stream` under a
/// 64-bit `key`, computable in any order and any number of times. This is
/// splitmix64 run in counter mode from a per-stream seed, so one stream's
/// draws are as independent as consecutive splitmix64 outputs, and distinct
/// streams start from unrelated seeds. Entanglement generation keys window
/// k of comm pair p as uniform(k) of stream p (replay format 2).
class KeyedStream {
 public:
  KeyedStream() = default;
  KeyedStream(std::uint64_t key, std::uint64_t stream) noexcept
      : seed_(mix64(key ^ mix64(stream))) {}

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform(std::uint64_t index) const noexcept {
    return static_cast<double>(bits(index)) * 0x1.0p-53;
  }

  /// The 53 random bits behind uniform(index), which is exactly
  /// bits(index) * 2^-53: the top bits of hash(index).
  std::uint64_t bits(std::uint64_t index) const noexcept {
    return hash(index) >> 11;
  }

  /// All 64 bits of draw `index`.
  std::uint64_t hash(std::uint64_t index) const noexcept {
    return mix64(seed_ + index * kGamma);
  }

  /// Integer form of a probability: bits(k) < threshold(p) exactly when
  /// uniform(k) < p, for every double p (NaN included), so a Bernoulli
  /// draw costs one integer compare. Scaling by 2^53 is exact below 1, and
  /// for an integer b, b < x exactly when b < ceil(x).
  static std::uint64_t threshold(double p) noexcept {
    if (!(p > 0.0)) return 0;
    if (p >= 1.0) return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }

  /// Full-width form of threshold(p) for p > 0: hash(k) <= hash_ceiling(p)
  /// exactly when bits(k) < threshold(p), which saves a shift per draw.
  /// At p >= 1 it wraps to 2^64 - 1, and every draw is below it.
  static std::uint64_t hash_ceiling(double p) noexcept {
    return (threshold(p) << 11) - 1;
  }

 private:
  static constexpr std::uint64_t kGamma = 0xD1B54A32D192ED03ULL;
  std::uint64_t seed_ = 0;
};

/// Deterministic 64-bit PRNG (xoshiro256**) with convenience distributions.
///
/// Satisfies the C++ UniformRandomBitGenerator concept, so it can also be
/// used with standard `<random>` distributions when needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Construct from a 64-bit seed; distinct seeds give independent streams.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64-bit value.
  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Fill `out[0..n)` with uniform doubles in [0, 1), consuming the stream
  /// exactly as n successive uniform() calls would. Batching the draws for
  /// a known-size consumer (e.g. all purification rounds of one remote
  /// gate) keeps the loop branch-free without perturbing replay.
  void fill_uniform(double* out, std::size_t n) noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t uniform_int(std::uint64_t n) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  bool bernoulli(double p) noexcept;

  /// Number of failures before the first success of a Bernoulli(p) process;
  /// i.e. a geometric variate with support {0, 1, 2, ...}.
  /// Precondition: 0 < p <= 1.
  std::uint64_t geometric(double p) noexcept;

  /// Exponential variate with the given mean (inversion method). uniform()
  /// is in [0, 1), so the log argument stays in (0, 1] and the result is
  /// finite and non-negative. This is the blessed wrapper for Exp sampling:
  /// callers in result-affecting subsystems must use it instead of spelling
  /// the -mean * log(1 - u) inversion with raw libm (docs/ARCHITECTURE.md
  /// "Determinism rules", no-raw-libm).
  double exponential(double mean) noexcept;

  /// Fisher–Yates shuffle of a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_int(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child stream (for per-run seeding in sweeps).
  Rng split() noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace dqcsim
