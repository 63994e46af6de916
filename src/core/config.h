#ifndef XSSD_CORE_CONFIG_H_
#define XSSD_CORE_CONFIG_H_

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "flash/geometry.h"
#include "flash/timing.h"
#include "ftl/ftl.h"
#include "ftl/scheduler.h"
#include "ftl/scrub.h"
#include "sim/time.h"

namespace xssd::core {

/// Memory technology backing the CMB area (paper §4.1 evaluates both).
enum class BackingKind {
  kSram,  ///< FPGA BlockRAM: 128-bit @ 250 MHz = 4 GB/s, small (128 KiB)
  kDram,  ///< device DDR3: 64-bit @ 250 MHz = 2 GB/s, shared, large (128 MiB)
};

/// \brief Fast-side (CMB module) configuration.
struct CmbConfig {
  BackingKind backing = BackingKind::kSram;
  /// PM ring capacity. Paper: 128 KiB (SRAM) / 128 MiB (DRAM).
  uint64_t ring_bytes = 128 * kKiB;
  /// Staging-queue size pre-negotiated with the database (§4.1); the flow-
  /// control window. Paper finds 32 KiB best (§6.3).
  uint64_t queue_bytes = 32 * kKiB;
  /// Fraction of DRAM bandwidth left for CMB after the device's regular
  /// data-buffering activity (the DRAM is shared; §6 implementation notes).
  /// The CMB intake and the destage module's ring reads both draw from
  /// this budget.
  double dram_available_fraction = 0.30;
};

/// \brief Destage module configuration (paper §4.3).
struct DestageConfig {
  /// First LBA of the conventional-side destaging ring.
  uint64_t ring_start_lba = 0;
  /// Ring length in logical blocks ("much larger than the fast side").
  uint64_t ring_lba_count = 2048;
  /// Destage less than a full page if data has waited this long (the
  /// "latency threshold" of §4.3); filler pads the page.
  sim::SimTime latency_threshold = sim::Us(500);
  /// Maximum concurrent destage programs (pipeline depth across dies).
  uint32_t max_inflight = 32;
};

/// Device role in a replication group (§4.2).
enum class Role : uint32_t {
  kStandalone = 0,
  kPrimary = 1,
  kSecondary = 2,
};

/// Replication protocol the credit counter implements (§4.2).
enum class ReplicationProtocol : uint32_t {
  kEager = 0,  ///< credit = slowest secondary (log persisted everywhere)
  kLazy = 1,   ///< credit = local counter (primary proceeds independently)
  kChain = 2,  ///< credit = counter of the last secondary in the chain
};

/// \brief Transport module configuration (§4.2).
struct TransportConfig {
  /// How often a secondary forwards its credit counter to the primary.
  /// Figure 13 sweeps 0.4–1.6 µs.
  sim::SimTime update_period = sim::Ns(800);
  ReplicationProtocol protocol = ReplicationProtocol::kEager;
  /// A shadow counter lagging the local credit for longer than this while
  /// traffic is outstanding raises the stalled bit in the status register.
  sim::SimTime stall_timeout = sim::Ms(10);
  /// Retransmit timer: when a shadow counter has made no progress for this
  /// long while lagging, the primary re-mirrors the missing ring bytes.
  /// Doubles per silent round up to retransmit_backoff_max. 0 disables
  /// (the paper's prototype behaviour; fault-tolerant setups opt in).
  sim::SimTime retransmit_timeout = 0;
  sim::SimTime retransmit_backoff_max = sim::Ms(5);
  /// After this long without any shadow progress the primary enters
  /// degraded mode: credit falls back to the local counter (logging
  /// continues un-replicated) until the lagging peers catch back up.
  /// 0 disables degraded mode (the paper's strict eager behaviour). The
  /// watchdog rides the retransmit timer, so this requires
  /// retransmit_timeout > 0.
  sim::SimTime degrade_timeout = 0;
};

/// \brief Power-loss protection model: supercapacitors hold the device up
/// long enough to destage the fast side (§3.1 crash consistency).
struct PowerConfig {
  /// Pages the stored energy can destage after a sudden power cut. The
  /// default comfortably covers the largest SRAM ring.
  uint32_t supercap_page_budget = 64;
};

/// \brief One partition of a multi-tenant CMB (paper §7.2): a fast side
/// with its own staging queue and PM ring, credit counter, destage ring
/// and replication configuration.
struct PartitionConfig {
  CmbConfig cmb;
  DestageConfig destage;
  TransportConfig transport;
};

/// \brief Full Villars device configuration.
struct VillarsConfig {
  flash::Geometry geometry;
  flash::Reliability reliability;
  ftl::FtlConfig ftl;
  /// Patrol scrubber (off by default — see ScrubConfig::enabled).
  ftl::ScrubConfig scrub;
  /// Partition 0's fast side: the only one of a single-tenant device.
  CmbConfig cmb;
  DestageConfig destage;
  TransportConfig transport;
  /// Partitions 1.. of a multi-tenant device, each a further fast side on
  /// the shared conventional side, with a destage ring disjoint from every
  /// other partition's.
  std::vector<PartitionConfig> extra_partitions;
  PowerConfig power;
  ftl::SchedulingPolicy scheduling = ftl::SchedulingPolicy::kNeutral;
  uint64_t seed = 42;
};

/// Every partition of `config`, partition 0 first.
inline std::vector<PartitionConfig> Partitions(const VillarsConfig& config) {
  std::vector<PartitionConfig> partitions = {
      {config.cmb, config.destage, config.transport}};
  partitions.insert(partitions.end(), config.extra_partitions.begin(),
                    config.extra_partitions.end());
  return partitions;
}

/// Whether two destage rings share a logical block.
inline bool DestageRingsOverlap(const DestageConfig& a,
                                const DestageConfig& b) {
  return a.ring_start_lba < b.ring_start_lba + b.ring_lba_count &&
         b.ring_start_lba < a.ring_start_lba + a.ring_lba_count;
}

}  // namespace xssd::core

#endif  // XSSD_CORE_CONFIG_H_
