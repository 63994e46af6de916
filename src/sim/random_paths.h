#ifndef XSSD_SIM_RANDOM_PATHS_H_
#define XSSD_SIM_RANDOM_PATHS_H_

// Private to src/sim/ and its tests: the implementations behind
// Rng::FillLowBytes, so a test can check each one against the scalar loop.
// Everything else calls FillLowBytes().

#include <cstddef>
#include <cstdint>

#include "sim/random.h"

namespace xssd::sim {

struct RngPaths {
  static constexpr size_t kLanes = Rng::kFillLanes;
  static constexpr size_t kLaneBytes = Rng::kFillLaneBytes;
  /// The shortest span FillLowBytes hands to a lane path.
  static constexpr size_t kBlockBytes = kLanes * kLaneBytes;

  /// The engine's four state words.
  static uint64_t* State(Rng& rng) { return rng.state_; }

  /// One Next() per byte: the reference, and the path on a CPU without
  /// AVX2.
  static void Scalar(Rng& rng, uint8_t* out, size_t n);

  /// Advance `rng` by kLaneBytes draws at once.
  static void Jump(Rng& rng);

  /// Whole blocks in kLanes lanes, the rest one draw per byte, built for
  /// the ISA each names. Call one only when its *Available() holds.
  static bool Avx2Available();
  static void LanesAvx2(Rng& rng, uint8_t* out, size_t n);
  static bool Avx512Available();
  static void LanesAvx512(Rng& rng, uint8_t* out, size_t n);
};

}  // namespace xssd::sim

#endif  // XSSD_SIM_RANDOM_PATHS_H_
