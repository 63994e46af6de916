#ifndef XSSD_SIM_TIME_H_
#define XSSD_SIM_TIME_H_

#include <cmath>
#include <cstdint>

namespace xssd::sim {

/// Virtual simulation time, in nanoseconds. All device/link/flash latencies
/// are charged in this unit. 64 bits of nanoseconds cover ~584 years of
/// simulated time, far beyond any experiment here.
using SimTime = uint64_t;

inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1000;
inline constexpr SimTime kMillisecond = 1000 * kMicrosecond;
inline constexpr SimTime kSecond = 1000 * kMillisecond;

constexpr SimTime Ns(uint64_t n) { return n; }
constexpr SimTime Us(uint64_t n) { return n * kMicrosecond; }
constexpr SimTime Ms(uint64_t n) { return n * kMillisecond; }
constexpr SimTime Sec(uint64_t n) { return n * kSecond; }

/// Fractional-microsecond helper (e.g. UsF(0.4) for a 400 ns period).
inline SimTime UsF(double us) {
  return static_cast<SimTime>(std::llround(us * 1000.0));
}

inline double ToUs(SimTime t) { return static_cast<double>(t) / 1000.0; }
inline double ToMs(SimTime t) { return static_cast<double>(t) / 1e6; }
inline double ToSec(SimTime t) { return static_cast<double>(t) / 1e9; }

/// `ns` rounded to the nearest integer, halves away from zero: equal to
/// std::llround(ns) for every 0 <= ns < 2^63, without the libm call. For
/// such a double, `ns - trunc(ns)` is exact (it keeps only the bits below
/// the units place), so comparing it with 0.5 decides the rounding exactly.
inline SimTime RoundNs(double ns) {
  auto t = static_cast<SimTime>(ns);  // truncates
  return ns - static_cast<double>(t) >= 0.5 ? t + 1 : t;
}

/// Time to move `bytes` at `bytes_per_sec`, rounded to the nearest ns and
/// up to >= 1 ns for any non-zero transfer so events always make progress.
inline SimTime TransferTime(uint64_t bytes, double bytes_per_sec) {
  if (bytes == 0) return 0;
  SimTime t = RoundNs(static_cast<double>(bytes) * 1e9 / bytes_per_sec);
  return t == 0 ? 1 : t;
}

}  // namespace xssd::sim

#endif  // XSSD_SIM_TIME_H_
