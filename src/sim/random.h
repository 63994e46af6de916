#ifndef XSSD_SIM_RANDOM_H_
#define XSSD_SIM_RANDOM_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace xssd::sim {

/// \brief Deterministic 64-bit PRNG (xoshiro256**), seeded explicitly.
///
/// All stochastic behaviour in the simulator (workload mixes, bit-error
/// injection, crash points, fuzzer schedules) draws from an Rng so
/// experiments are exactly reproducible from a seed.
///
/// The engine is PINNED: xoshiro256** with SplitMix64 seed expansion,
/// implemented here over plain uint64_t arithmetic. It deliberately uses
/// no <random> engines or distributions — the standard leaves those
/// implementation-defined, so std::mt19937 + std::uniform_int_distribution
/// yields different streams on libstdc++ vs libc++ vs MSVC. Every recorded
/// seed (fault campaigns, conformance traces, CI counterexamples) assumes
/// the exact streams this file produces; any change to the algorithm,
/// the seeding, or the derived helpers (Uniform's modulo, NextDouble's
/// 53-bit scaling) is a silent break of all of them. The golden-values
/// test (tests/sim/random_golden_test.cc) exists to make that break loud;
/// do not "fix" the constants there to match a modified engine.
///
/// FillLowBytes is part of the pinned engine: it must write the bytes that
/// one Next() per byte would. On an x86-64 CPU with AVX2 its long spans run
/// in lanes started kFillLaneBytes draws apart, each lane reached by
/// xoshiro's jump routine with the constant x^kFillLaneBytes mod P(x), P
/// the characteristic polynomial of the engine's linear state update
/// (random.cc says how the constant was derived).
/// tests/sim/random_fill_test.cc checks every lane path against one draw
/// per byte and the jump against single steps.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    // SplitMix64 expansion of the seed into the xoshiro state.
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ull;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      word = z ^ (z >> 31);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }

  /// Uniform integer in [lo, hi] inclusive.
  uint64_t UniformRange(uint64_t lo, uint64_t hi) {
    return lo + Uniform(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Exponentially distributed value with the given mean.
  double Exponential(double mean) {
    double u = NextDouble();
    if (u >= 1.0) u = 0.9999999999;
    return -mean * std::log1p(-u);
  }

  /// NURand-style non-uniform integer per the TPC-C specification.
  uint64_t NuRand(uint64_t a, uint64_t x, uint64_t y, uint64_t c) {
    return (((UniformRange(0, a) | UniformRange(x, y)) + c) % (y - x + 1)) + x;
  }

  /// Write the low bytes of the next `n` draws: exactly what `n` calls of
  /// static_cast<uint8_t>(Next()) would write, leaving the state where
  /// they would. Spans of a block (kFillLanes lanes of kFillLaneBytes) or
  /// more go to the lane loop when the CPU has one; the rest stay inline.
  void FillLowBytes(uint8_t* out, size_t n) {
    if (n >= kFillLanes * kFillLaneBytes) {
      FillLowBytesLong(out, n);
      return;
    }
    DrawLowBytes(out, n);
  }

 private:
  friend struct RngPaths;

  static constexpr size_t kFillLanes = 8;
  static constexpr size_t kFillLaneBytes = 4096;

  static uint64_t Rotl(uint64_t v, int k) { return (v << k) | (v >> (64 - k)); }

  /// One Next() per byte, from a local copy: stores through `out` may
  /// alias any object, so drawing from *this would reload the state for
  /// every byte.
  void DrawLowBytes(uint8_t* out, size_t n) {
    Rng rng = *this;
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(rng.Next());
    *this = rng;
  }

  /// FillLowBytes of a block or more, on the fastest path this CPU runs.
  void FillLowBytesLong(uint8_t* out, size_t n);

  uint64_t state_[4];
};

}  // namespace xssd::sim

#endif  // XSSD_SIM_RANDOM_H_
