#include "db/log_backend.h"

#include "common/logging.h"

namespace xssd::db {

/// NVDIMM write bandwidth.
constexpr double kPmBytesPerSec = 8e9;
/// clwb + sfence drain.
constexpr sim::SimTime kPersistBarrier = sim::Ns(400);

void NoLogBackend::AppendDurable(const uint8_t* data, size_t len,
                                 std::function<void(Status)> done) {
  (void)data;
  Account(len);
  sim_->Schedule(0, [done = std::move(done)]() { done(Status::OK()); });
}

NvdimmBackend::NvdimmBackend(sim::Simulator* sim)
    : sim_(sim), pm_port_(sim, kPmBytesPerSec) {}

void NvdimmBackend::AppendDurable(const uint8_t* data, size_t len,
                                  std::function<void(Status)> done) {
  (void)data;
  Account(len);
  sim::SimTime stored = pm_port_.Acquire(len);
  sim_->ScheduleAt(stored + kPersistBarrier,
                   [done = std::move(done)]() { done(Status::OK()); });
}

void NvmeLogBackend::AppendDurable(const uint8_t* data, size_t len,
                                   std::function<void(Status)> done) {
  Account(len);
  uint32_t block = driver_->block_bytes();
  uint32_t blocks = static_cast<uint32_t>((len + block - 1) / block);
  XSSD_CHECK(blocks <= lba_count_);
  if (cursor_ + blocks > lba_count_) cursor_ = 0;  // wrap the log file
  uint64_t lba = start_lba_ + cursor_;
  cursor_ += blocks;

  // Pad the tail block.
  std::vector<uint8_t> padded(static_cast<size_t>(blocks) * block, 0);
  std::copy(data, data + len, padded.begin());
  driver_->Write(lba, padded.data(), blocks,
                 [this, done = std::move(done)](Status status) mutable {
                   if (!status.ok()) {
                     done(status);
                     return;
                   }
                   driver_->Flush(std::move(done));
                 });
}

void VillarsLogBackend::AppendDurable(const uint8_t* data, size_t len,
                                      std::function<void(Status)> done) {
  Account(len);
  client_->AppendDurable(data, len, std::move(done));
}

}  // namespace xssd::db
