#ifndef XSSD_FLASH_ARRAY_H_
#define XSSD_FLASH_ARRAY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "flash/geometry.h"
#include "flash/timing.h"
#include "obs/metrics.h"
#include "sim/bandwidth_server.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace xssd::fault {
class FaultInjector;
}  // namespace xssd::fault

namespace xssd::flash {

/// Per-array operation statistics.
struct ArrayStats {
  uint64_t reads = 0;
  uint64_t programs = 0;
  uint64_t erases = 0;
  uint64_t program_failures = 0;
  uint64_t erase_failures = 0;
  uint64_t bad_block_rejects = 0;  ///< ops refused because the block is bad
  uint64_t corrected_bit_errors = 0;
  uint64_t uncorrectable_reads = 0;
  uint64_t read_retries = 0;     ///< extra sense passes spent on the ladder
  uint64_t retry_exhausted = 0;  ///< reads still uncorrectable after it
};

/// \brief The NAND flash array: channels × dies with real page contents and
/// timing-accurate operation service.
///
/// This is the "Flash Storage Controller + Flash arrays" bottom layer of
/// Figure 2. The array enforces NAND physics:
///  - a die serves one operation at a time (tR / tPROG / tBERS busy);
///  - page data moves over the per-channel bus at channel_bytes_per_sec;
///  - pages must be programmed in order within an erased block;
///  - reads sample bit errors against the ECC budget (wear-dependent).
///
/// Scheduling *policy* (who goes next) lives above, in ftl::Scheduler; the
/// array exposes busy probes so the scheduler can be opportunistic.
class Array {
 public:
  using ProgramCallback = std::function<void(Status)>;
  using ReadCallback = std::function<void(Status, std::vector<uint8_t>)>;
  using EraseCallback = std::function<void(Status)>;

  Array(sim::Simulator* sim, Geometry geometry, Timing timing,
        Reliability reliability, uint64_t seed);

  Array(const Array&) = delete;
  Array& operator=(const Array&) = delete;

  /// Program a full page. `data` shorter than page_bytes is zero-padded.
  /// Fails with kIoError on (injected) program failure — the caller must
  /// treat the block as bad — or kFailedPrecondition on NAND rule
  /// violations (page not erased / out-of-order program).
  /// `oob` (at most geometry().oob_bytes) lands in the page's spare area in
  /// the same program pulse — data and OOB are atomic, which is what makes
  /// an OOB mapping scan a sound recovery source.
  /// `bus_released` (optional) fires when the channel-bus transfer into the
  /// die's page register finishes — the point the scheduler may start the
  /// next transfer on this channel while tPROG runs.
  void Program(const Address& addr, std::vector<uint8_t> data,
               std::vector<uint8_t> oob, ProgramCallback done,
               sim::Simulator::Callback bus_released = nullptr);

  /// Read a full page. kCorruption when errors exceed the ECC budget; the
  /// returned data is then the *corrupted* image.
  void Read(const Address& addr, ReadCallback done);

  /// Erase a block (page component of `addr` ignored).
  void Erase(const Address& addr, EraseCallback done);

  // -- Scheduler probes -----------------------------------------------------

  /// True if the die can start an operation right now.
  bool DieIdle(uint32_t channel, uint32_t die) const;
  /// Absolute time the die becomes free.
  sim::SimTime DieBusyUntil(uint32_t channel, uint32_t die) const;

  bool IsBadBlock(const Address& addr) const;
  uint32_t EraseCount(const Address& addr) const;

  /// Reads issued to the page's block since its last erase (read disturb).
  uint64_t ReadsSinceErase(const Address& addr) const;
  /// Virtual time the block was last erased or first programmed after that
  /// erase — the epoch retention dwell is measured from.
  sim::SimTime ProgrammedAt(const Address& addr) const;
  /// Current effective raw bit-error rate of the page's block: wear +
  /// retention dwell + read disturb. Pure prediction — no sampling, no
  /// fault-injection boosts. The patrol scrubber ranks blocks with this.
  double PredictedBer(const Address& addr) const;

  /// Synchronous functional peek at stored page bytes (tests/recovery
  /// tooling only — no timing, no ECC).
  const std::vector<uint8_t>* PeekPage(const Address& addr) const;

  /// Synchronous peek at a page's OOB (spare) bytes, or nullptr when the
  /// page is erased or carries no OOB. Recovery's boot-time mapping scan
  /// reads through this probe (timing is charged by the caller).
  const std::vector<uint8_t>* PeekOob(const Address& addr) const;

  /// Test hook: XOR `xor_mask` into one stored OOB byte (index taken modulo
  /// the record length). No-op on erased pages; returns whether it landed.
  bool CorruptOob(const Address& addr, size_t byte_index, uint8_t xor_mask);

  const Geometry& geometry() const { return geometry_; }
  const Timing& timing() const { return timing_; }
  const Reliability& reliability() const { return reliability_; }
  const ArrayStats& stats() const { return stats_; }

  /// Aggregate sustainable program bandwidth (all dies busy), bytes/sec.
  double MaxProgramBandwidth() const;

  /// Register this array's metrics under `prefix` + "flash.".
  void SetMetrics(obs::MetricsRegistry* registry,
                  const std::string& prefix = "");

  /// Attach a fault injector (nullptr detaches). Injected program/erase
  /// failures and uncorrectable reads ride the same paths as the wear
  /// model's, so callers cannot tell them apart — which is the point.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }

 private:
  struct Block {
    std::vector<std::vector<uint8_t>> pages;  // empty vector == erased
    std::vector<std::vector<uint8_t>> oob;    // spare area, same lifecycle
    uint32_t next_page = 0;                   // NAND in-order program cursor
    uint32_t erase_count = 0;
    sim::SimTime programmed_at = 0;   // retention-dwell epoch (see header)
    uint64_t reads_since_erase = 0;   // read-disturb counter
    bool bad = false;
  };
  struct Die {
    sim::SimTime busy_until = 0;
    std::vector<Block> blocks;  // planes * blocks_per_plane
  };

  Block& BlockAt(const Address& addr);
  const Block& BlockAt(const Address& addr) const;
  Die& DieAt(uint32_t channel, uint32_t die) {
    return dies_[channel * geometry_.dies_per_channel + die];
  }
  const Die& DieAt(uint32_t channel, uint32_t die) const {
    return dies_[channel * geometry_.dies_per_channel + die];
  }

  /// Occupy the die starting no earlier than `earliest`; returns end time.
  sim::SimTime OccupyDie(Die& die, sim::SimTime earliest,
                         sim::SimTime duration);

  /// Effective BER of a block right now: raw + wear + retention + disturb.
  /// No fault-injection terms (PredictedBer shares this).
  double BaseBer(const Block& block) const;

  /// Sample read bit errors for a block at its current wear, retention
  /// dwell, and disturb count, scaled by `ber_scale` (the retry ladder
  /// passes < 1 for shifted-reference re-senses). Fault-injection dwell and
  /// disturb boosts are added here so injected decay is indistinguishable
  /// from organic decay.
  uint64_t SampleBitErrors(const Block& block, double ber_scale);

  sim::Simulator* sim_;
  Geometry geometry_;
  Timing timing_;
  Reliability reliability_;
  sim::Rng rng_;
  fault::FaultInjector* injector_ = nullptr;

  std::vector<Die> dies_;
  std::vector<std::unique_ptr<sim::BandwidthServer>> channel_bus_;
  ArrayStats stats_;

  // Observability (null until SetMetrics).
  obs::Counter* m_reads_ = nullptr;
  obs::Counter* m_programs_ = nullptr;
  obs::Counter* m_erases_ = nullptr;
  obs::Counter* m_program_failures_ = nullptr;
  obs::Counter* m_erase_failures_ = nullptr;
  obs::Counter* m_bad_block_rejects_ = nullptr;
  obs::Counter* m_corrected_bit_errors_ = nullptr;
  obs::Counter* m_uncorrectable_reads_ = nullptr;
  obs::Counter* m_read_retries_ = nullptr;
  obs::Counter* m_retry_exhausted_ = nullptr;
};

}  // namespace xssd::flash

#endif  // XSSD_FLASH_ARRAY_H_
