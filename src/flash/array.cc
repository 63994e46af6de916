#include "flash/array.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "fault/fault_injector.h"

namespace xssd::flash {

Oob::Oob(const uint8_t* data, size_t size) {
  XSSD_CHECK(size <= kOobBytes);
  if (size > 0) std::memcpy(bytes_.data(), data, size);
  size_ = static_cast<uint8_t>(size);
}

Array::Array(sim::Simulator* sim, Geometry geometry, Timing timing,
             Reliability reliability, uint64_t seed)
    : sim_(sim),
      geometry_(geometry),
      timing_(timing),
      reliability_(reliability),
      rng_(seed) {
  dies_.resize(geometry_.dies());
  const uint32_t blocks_per_die =
      geometry_.planes_per_die * geometry_.blocks_per_plane;
  for (Die& die : dies_) {
    die.blocks.resize(blocks_per_die);
    for (Block& block : die.blocks) {
      if (reliability_.factory_bad_block_rate > 0 &&
          rng_.Bernoulli(reliability_.factory_bad_block_rate)) {
        block.bad = true;
      }
    }
  }
  channel_bus_.reserve(geometry_.channels);
  for (uint32_t c = 0; c < geometry_.channels; ++c) {
    channel_bus_.push_back(std::make_unique<sim::BandwidthServer>(
        sim_, timing_.channel_bytes_per_sec, timing_.command_overhead));
  }
}

void Array::SetMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) {
  m_reads_ = registry->GetCounter(prefix + "flash.reads");
  m_programs_ = registry->GetCounter(prefix + "flash.programs");
  m_erases_ = registry->GetCounter(prefix + "flash.erases");
  m_program_failures_ =
      registry->GetCounter(prefix + "flash.program_failures");
  m_erase_failures_ = registry->GetCounter(prefix + "flash.erase_failures");
  m_bad_block_rejects_ =
      registry->GetCounter(prefix + "flash.bad_block_rejects");
  m_corrected_bit_errors_ =
      registry->GetCounter(prefix + "flash.corrected_bit_errors");
  m_uncorrectable_reads_ =
      registry->GetCounter(prefix + "flash.uncorrectable_reads");
  m_read_retries_ = registry->GetCounter(prefix + "flash.read_retries");
  m_retry_exhausted_ =
      registry->GetCounter(prefix + "flash.retry_exhausted");
}

Array::Block& Array::BlockAt(const Address& addr) {
  Die& die = DieAt(addr.channel, addr.die);
  return die.blocks[addr.plane * geometry_.blocks_per_plane + addr.block];
}

const Array::Block& Array::BlockAt(const Address& addr) const {
  const Die& die = DieAt(addr.channel, addr.die);
  return die.blocks[addr.plane * geometry_.blocks_per_plane + addr.block];
}

Array::Page* Array::PageAt(const Address& addr) {
  Block& block = BlockAt(addr);
  return block.pages != nullptr ? &block.pages[addr.page] : nullptr;
}

const Array::Page* Array::PageAt(const Address& addr) const {
  const Block& block = BlockAt(addr);
  return block.pages != nullptr ? &block.pages[addr.page] : nullptr;
}

sim::SimTime Array::OccupyDie(Die& die, sim::SimTime earliest,
                              sim::SimTime duration) {
  sim::SimTime start = std::max(earliest, die.busy_until);
  die.busy_until = start + duration;
  return die.busy_until;
}

double Array::BaseBer(const Block& block) const {
  double ber = reliability_.raw_bit_error_rate;
  // Retention dwell only applies to data: an erased block holds no charge
  // to leak, so its clock starts at the first program (see Program).
  if (reliability_.ber_per_retention_sec > 0 && block.next_page > 0 &&
      sim_->Now() > block.programmed_at) {
    ber += reliability_.ber_per_retention_sec *
           sim::ToSec(sim_->Now() - block.programmed_at);
  }
  ber += reliability_.ber_per_read_disturb *
         static_cast<double>(block.reads_since_erase);
  return ber;
}

uint64_t Array::SampleBitErrors(const Block& block, double ber_scale) {
  double ber = BaseBer(block);
  if (injector_ != nullptr) {
    sim::SimTime extra_dwell = injector_->InjectFlashRetentionDwell();
    if (extra_dwell > 0) {
      ber += reliability_.ber_per_retention_sec * sim::ToSec(extra_dwell);
    }
    uint64_t extra_reads = injector_->InjectFlashDisturbReads();
    if (extra_reads > 0) {
      ber += reliability_.ber_per_read_disturb *
             static_cast<double>(extra_reads);
    }
  }
  ber *= ber_scale;
  if (ber <= 0) return 0;
  // Binomial(page_bits, ber) approximated by its Poisson limit; exact
  // sampling is irrelevant at these rates.
  double mean = ber * geometry_.page_bytes * 8.0;
  uint64_t errors = 0;
  // Poisson via exponential inter-arrivals (mean is tiny in practice).
  double acc = rng_.Exponential(1.0);
  while (acc < mean) {
    ++errors;
    acc += rng_.Exponential(1.0);
  }
  return errors;
}

void Array::Program(const Address& addr, Bytes data, const Oob& oob,
                    ProgramCallback done,
                    sim::Simulator::Callback bus_released) {
  XSSD_CHECK(Contains(geometry_, addr));
  Block& block = BlockAt(addr);
  if (block.bad) {
    ++stats_.bad_block_rejects;
    if (m_bad_block_rejects_) m_bad_block_rejects_->Add();
    sim_->Schedule(timing_.command_overhead,
                   [done = std::move(done),
                    bus_released = std::move(bus_released)]() mutable {
                     if (bus_released) bus_released();
                     done(Status::IoError("program to bad block"));
                   });
    return;
  }
  if (addr.page != block.next_page) {
    // NAND requires in-order page programming within an erased block.
    sim_->Schedule(timing_.command_overhead,
                   [done = std::move(done),
                    bus_released = std::move(bus_released)]() mutable {
                     if (bus_released) bus_released();
                     done(Status::FailedPrecondition(
                         "out-of-order page program"));
                   });
    return;
  }
  data = data.Fit(geometry_.page_bytes);

  bool fail = reliability_.program_fail_rate > 0 &&
              rng_.Bernoulli(reliability_.program_fail_rate);
  if (injector_ != nullptr && injector_->InjectFlashProgramFail()) fail = true;

  // Data moves over the channel bus into the die's page register, then the
  // die is busy for tPROG.
  sim::SimTime bus_done =
      channel_bus_[addr.channel]->Acquire(geometry_.page_bytes);
  if (bus_released) sim_->ScheduleAt(bus_done, std::move(bus_released));
  Die& die = DieAt(addr.channel, addr.die);
  sim::SimTime prog_done = OccupyDie(die, bus_done, timing_.program_latency);

  ++stats_.programs;
  if (m_programs_) m_programs_->Add();
  if (fail) {
    ++stats_.program_failures;
    if (m_program_failures_) m_program_failures_->Add();
    block.bad = true;
    sim_->ScheduleAt(prog_done, [done = std::move(done)]() {
      done(Status::IoError("program operation failed"));
    });
    return;
  }
  if (block.next_page == 0) {
    block.programmed_at = sim_->Now();
    block.pages = std::make_unique<Page[]>(geometry_.pages_per_block);
  }
  block.pages[addr.page] = Page{std::move(data), oob};
  block.next_page = addr.page + 1;
  sim_->ScheduleAt(prog_done,
                   [done = std::move(done)]() { done(Status::OK()); });
}

void Array::Read(const Address& addr, ReadCallback done) {
  XSSD_CHECK(Contains(geometry_, addr));
  Block& block = BlockAt(addr);
  ++stats_.reads;
  if (m_reads_) m_reads_->Add();
  ++block.reads_since_erase;

  // Sample errors and walk the read-retry ladder up front: each level
  // re-senses with a shifted read reference (reduced effective BER) and
  // charges one extra tR of die time. Injector-forced uncorrectables model
  // damage beyond what reference shifting can recover, so they bypass the
  // ladder.
  uint64_t errors;
  uint32_t retries = 0;
  if (injector_ != nullptr && injector_->InjectFlashReadUncorrectable()) {
    errors = reliability_.ecc_correctable_bits + 1;
  } else {
    errors = SampleBitErrors(block, 1.0);
    double scale = 1.0;
    while (errors > reliability_.ecc_correctable_bits &&
           retries < reliability_.read_retry_levels) {
      ++retries;
      scale *= reliability_.retry_ber_factor;
      errors = SampleBitErrors(block, scale);
    }
    if (retries > 0) {
      stats_.read_retries += retries;
      if (m_read_retries_) m_read_retries_->Add(retries);
    }
  }

  // tR (once per sense pass) moves the page into the register, then it
  // streams over the bus.
  Die& die = DieAt(addr.channel, addr.die);
  sim::SimTime sense_done = OccupyDie(
      die, sim_->Now(), timing_.read_latency * (1 + retries));
  sim::SimTime start_bus = std::max(sense_done, sim_->Now());
  // Bus transfer starts once the register holds the data.
  sim::SimTime bus_done = std::max(
      channel_bus_[addr.channel]->Acquire(geometry_.page_bytes), start_bus);

  const Page* page = PageAt(addr);
  Bytes data = page != nullptr ? page->data : Bytes();
  if (data.empty()) {  // erased page
    data = Bytes::Build(geometry_.page_bytes, [&](uint8_t* out) {
      std::memset(out, 0xFF, geometry_.page_bytes);
    });
  }

  if (errors > reliability_.ecc_correctable_bits) {
    ++stats_.uncorrectable_reads;
    if (m_uncorrectable_reads_) m_uncorrectable_reads_->Add();
    ++stats_.retry_exhausted;
    if (m_retry_exhausted_) m_retry_exhausted_->Add();
    // Corrupt a copy of the image deterministically; the stored page
    // keeps its bytes.
    std::vector<uint8_t> image = data.ToVector();
    for (uint64_t i = 0; i < errors && i < 64; ++i) {
      uint64_t bit = rng_.Uniform(image.size() * 8);
      image[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    sim_->ScheduleAt(bus_done, [data = Bytes(std::move(image)),
                                done = std::move(done)]() mutable {
      done(Status::Corruption("uncorrectable bit errors"), std::move(data));
    });
    return;
  }
  stats_.corrected_bit_errors += errors;
  if (m_corrected_bit_errors_) m_corrected_bit_errors_->Add(errors);
  // The page handle and the callback fill EventFn's inline buffer.
  sim_->ScheduleAt(bus_done, [data = std::move(data),
                              done = std::move(done)]() mutable {
    done(Status::OK(), std::move(data));
  });
}

void Array::Erase(const Address& addr, EraseCallback done) {
  XSSD_CHECK(Contains(geometry_, addr));
  Block& block = BlockAt(addr);
  if (block.bad) {
    ++stats_.bad_block_rejects;
    if (m_bad_block_rejects_) m_bad_block_rejects_->Add();
    sim_->Schedule(timing_.command_overhead, [done = std::move(done)]() {
      done(Status::IoError("erase of bad block"));
    });
    return;
  }
  Die& die = DieAt(addr.channel, addr.die);
  sim::SimTime erase_done =
      OccupyDie(die, sim_->Now() + timing_.command_overhead,
                timing_.erase_latency);
  ++stats_.erases;
  if (m_erases_) m_erases_->Add();
  if (injector_ != nullptr && injector_->InjectFlashEraseFail()) {
    // An erase failure grows a bad block, same as a program failure.
    ++stats_.erase_failures;
    if (m_erase_failures_) m_erase_failures_->Add();
    block.bad = true;
    sim_->ScheduleAt(erase_done, [done = std::move(done)]() {
      done(Status::IoError("erase operation failed"));
    });
    return;
  }
  ++block.erase_count;
  block.pages.reset();
  block.next_page = 0;
  block.programmed_at = sim_->Now();  // dwell epoch restarts at the erase
  block.reads_since_erase = 0;
  sim_->ScheduleAt(erase_done,
                   [done = std::move(done)]() { done(Status::OK()); });
}

bool Array::DieIdle(uint32_t channel, uint32_t die) const {
  return DieAt(channel, die).busy_until <= sim_->Now();
}

sim::SimTime Array::DieBusyUntil(uint32_t channel, uint32_t die) const {
  return DieAt(channel, die).busy_until;
}

bool Array::IsBadBlock(const Address& addr) const {
  return BlockAt(addr).bad;
}

uint32_t Array::EraseCount(const Address& addr) const {
  return BlockAt(addr).erase_count;
}

uint64_t Array::ReadsSinceErase(const Address& addr) const {
  return BlockAt(addr).reads_since_erase;
}

sim::SimTime Array::ProgrammedAt(const Address& addr) const {
  return BlockAt(addr).programmed_at;
}

double Array::PredictedBer(const Address& addr) const {
  return BaseBer(BlockAt(addr));
}

const Bytes* Array::PeekPage(const Address& addr) const {
  const Page* page = PageAt(addr);
  if (page == nullptr || page->data.empty()) return nullptr;
  return &page->data;
}

const Oob* Array::PeekOob(const Address& addr) const {
  const Page* page = PageAt(addr);
  if (page == nullptr || page->oob.empty()) return nullptr;
  return &page->oob;
}

bool Array::CorruptOob(const Address& addr, size_t byte_index,
                       uint8_t xor_mask) {
  Page* page = PageAt(addr);
  if (page == nullptr || page->oob.empty() || xor_mask == 0) return false;
  page->oob[byte_index % page->oob.size()] ^= xor_mask;
  return true;
}

double Array::MaxProgramBandwidth() const {
  double per_die = static_cast<double>(geometry_.page_bytes) /
                   sim::ToSec(timing_.program_latency);
  double die_bound = per_die * geometry_.dies();
  double bus_bound = timing_.channel_bytes_per_sec * geometry_.channels;
  return std::min(die_bound, bus_bound);
}

}  // namespace xssd::flash
