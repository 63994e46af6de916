#ifndef XSSD_DB_LOG_BACKEND_H_
#define XSSD_DB_LOG_BACKEND_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "host/xlog_client.h"
#include "nvme/driver.h"
#include "sim/bandwidth_server.h"
#include "sim/simulator.h"

namespace xssd::db {

/// \brief Where the WAL goes. The LogManager group-commits through one of
/// these; the implementations are exactly the methods Figure 9 compares.
class LogBackend {
 public:
  virtual ~LogBackend() = default;

  /// Make `len` bytes durable; `done` fires when the durability criterion
  /// of the method holds (persist barrier, NVMe flush, or credit counter).
  virtual void AppendDurable(const uint8_t* data, size_t len,
                             std::function<void(Status)> done) = 0;

  virtual std::string name() const = 0;

  /// Host-side data movements per logged byte (paper §5.1 "Destaging
  /// Efficiency"): how many times the payload crosses the host memory bus.
  virtual int data_movements_per_byte() const = 0;

  uint64_t bytes_logged() const { return bytes_logged_; }
  uint64_t flushes() const { return flushes_; }

 protected:
  void Account(size_t len) {
    bytes_logged_ += len;
    ++flushes_;
  }

 private:
  uint64_t bytes_logged_ = 0;
  uint64_t flushes_ = 0;
};

/// "No Log" baseline: durability is free (and absent).
class NoLogBackend : public LogBackend {
 public:
  explicit NoLogBackend(sim::Simulator* sim) : sim_(sim) {}

  void AppendDurable(const uint8_t* data, size_t len,
                     std::function<void(Status)> done) override;
  std::string name() const override { return "no-log"; }
  int data_movements_per_byte() const override { return 0; }

 private:
  sim::Simulator* sim_;
};

/// "Memory" baseline: log to host NVDIMM (battery-backed DRAM DIMMs, the
/// way ERMIA emulates PM). A store stream at DIMM bandwidth plus a persist
/// barrier (clwb+sfence class cost). The host later has to destage the log
/// to an SSD itself — see the ablation bench — costing 4 data movements in
/// total (§5.1); this backend charges the first movement on the critical
/// path.
class NvdimmBackend : public LogBackend {
 public:
  explicit NvdimmBackend(sim::Simulator* sim);

  void AppendDurable(const uint8_t* data, size_t len,
                     std::function<void(Status)> done) override;
  std::string name() const override { return "nvdimm"; }
  int data_movements_per_byte() const override { return 4; }

  sim::BandwidthServer& pm_port() { return pm_port_; }

 private:
  sim::Simulator* sim_;
  sim::BandwidthServer pm_port_;
};

/// "NVMe" baseline: log to the conventional (block) side — pwrite of the
/// group into a log file region + fsync (NVMe write + Flush, QD1).
class NvmeLogBackend : public LogBackend {
 public:
  /// Logs into [start_lba, start_lba + lba_count) as a circular file.
  NvmeLogBackend(nvme::Driver* driver, uint64_t start_lba,
                 uint64_t lba_count)
      : driver_(driver), start_lba_(start_lba), lba_count_(lba_count) {}

  void AppendDurable(const uint8_t* data, size_t len,
                     std::function<void(Status)> done) override;
  std::string name() const override { return "nvme-conventional"; }
  int data_movements_per_byte() const override { return 2; }

 private:
  nvme::Driver* driver_;
  uint64_t start_lba_;
  uint64_t lba_count_;
  uint64_t cursor_ = 0;  // in blocks
};

/// The Villars fast side: x_pwrite + x_fsync through the CMB (this is the
/// Villars-SRAM / Villars-DRAM series depending on the device's backing).
class VillarsLogBackend : public LogBackend {
 public:
  explicit VillarsLogBackend(host::XLogClient* client) : client_(client) {}

  void AppendDurable(const uint8_t* data, size_t len,
                     std::function<void(Status)> done) override;
  std::string name() const override { return "villars-fast"; }
  int data_movements_per_byte() const override { return 2; }

 private:
  host::XLogClient* client_;
};

}  // namespace xssd::db

#endif  // XSSD_DB_LOG_BACKEND_H_
