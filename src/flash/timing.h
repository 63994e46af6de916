#ifndef XSSD_FLASH_TIMING_H_
#define XSSD_FLASH_TIMING_H_

#include "sim/time.h"

namespace xssd::flash {

/// \brief NAND operation latencies and channel speed.
///
/// Defaults model the MLC NAND on the Cosmos+ board in the paper's
/// prototype class: tR ≈ 45 µs, tPROG ≈ 300 µs, tBERS ≈ 3.5 ms, with a
/// 250 MB/s channel bus (8 channels ≈ 2 GB/s aggregate, matching the
/// platform's stated 2 GB/s ceiling [44]).
struct Timing {
  sim::SimTime read_latency = sim::Us(45);      ///< tR: cell array -> page reg
  sim::SimTime program_latency = sim::Us(250);  ///< tPROG (fast-page MLC)
  sim::SimTime erase_latency = sim::Us(3500);   ///< tBERS
  double channel_bytes_per_sec = 250e6;         ///< page reg <-> controller
  sim::SimTime command_overhead = sim::Us(1);   ///< cmd/addr cycles per op
};

/// \brief Reliability model knobs.
struct Reliability {
  /// Base raw bit-error rate per read. 0 disables injection.
  double raw_bit_error_rate = 0.0;
  /// Additional BER per second of retention dwell (virtual time since the
  /// block was first programmed after its last erase). Charge retention
  /// loss: data sitting cold decays.
  double ber_per_retention_sec = 0.0;
  /// Additional BER per read issued to the block since its last erase
  /// (read disturb). Hot-read blocks decay faster.
  double ber_per_read_disturb = 0.0;
  /// Correctable bits per page (BCH-class code strength, whole-page basis).
  uint32_t ecc_correctable_bits = 72;
  /// Read-retry ladder depth: when a read samples more errors than the ECC
  /// budget, the die re-senses up to this many times with shifted read
  /// reference voltages, each level re-sampling at
  /// effective_ber *= retry_ber_factor and charging one extra tR.
  uint32_t read_retry_levels = 4;
  /// Effective-BER multiplier applied per retry level (< 1).
  double retry_ber_factor = 0.5;
  /// Probability a program operation fails.
  double program_fail_rate = 0.0;
  /// Fraction of blocks marked factory-bad.
  double factory_bad_block_rate = 0.0;
};

}  // namespace xssd::flash

#endif  // XSSD_FLASH_TIMING_H_
