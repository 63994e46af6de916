// Pins the exact WAL byte stream the TPC-C workload produces. The database,
// the log manager and the record encoder may be restructured for speed, but
// every byte they hand the log backend (record order, headers, payloads,
// CRCs) and the commit count are part of the simulated result: Figure 9's
// log volume and every downstream device number depend on them.

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "db/log_backend.h"
#include "db/log_manager.h"
#include "db/tpcc.h"
#include "db/workload.h"
#include "fnv1a.h"

namespace xssd::db {
namespace {

/// Completes every flush at once, like NoLogBackend, while folding the
/// flushed bytes into a running FNV-1a hash.
class HashingBackend : public LogBackend {
 public:
  explicit HashingBackend(sim::Simulator* sim) : sim_(sim) {}

  void AppendDurable(const uint8_t* data, size_t len,
                     std::function<void(Status)> done) override {
    Account(len);
    fnv_ = Fnv1a(fnv_, data, len);
    sim_->Schedule(0, [done = std::move(done)]() { done(Status::OK()); });
  }
  std::string name() const override { return "hashing"; }
  int data_movements_per_byte() const override { return 0; }

  uint64_t fnv() const { return fnv_; }

 private:
  sim::Simulator* sim_;
  uint64_t fnv_ = kFnv1aBasis;
};

struct WalPin {
  uint64_t seed;
  uint64_t committed_txns;
  uint64_t wal_bytes;
  uint64_t wal_fnv1a;
};

void PrintTo(const WalPin& pin, std::ostream* os) {
  *os << "seed " << pin.seed;
}

class WalPinTest : public ::testing::TestWithParam<WalPin> {};

TEST_P(WalPinTest, TpccWalIsByteIdentical) {
  const WalPin& pin = GetParam();
  sim::Simulator sim;
  HashingBackend backend(&sim);
  LogManager log(&sim, &backend);
  Database database(&log);
  TpccWorkload workload(&database, TpccConfig{}, pin.seed);
  workload.Populate();
  WorkloadDriver driver(&sim, &database, &workload, 8, pin.seed ^ 0x5BD1E995);
  WorkloadResult result = driver.Run(sim::Ms(2), sim::Ms(30));

  EXPECT_EQ(result.committed_txns, pin.committed_txns);
  EXPECT_EQ(backend.bytes_logged(), pin.wal_bytes);
  EXPECT_EQ(log.next_lsn(), pin.wal_bytes);
  EXPECT_EQ(backend.fnv(), pin.wal_fnv1a);
}

// Recorded from the per-row-vector tables and the bytewise CRC. A mismatch
// means the simulated log changed: fix the code, not these values.
constexpr WalPin kPins[] = {
    {1, 8839, 7232668, 0xD8795775795804D3ull},
    {2027, 8822, 7230150, 0x65545A95593713C1ull},
};

std::string SeedName(const testing::TestParamInfo<WalPin>& info) {
  return "seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalPinTest, testing::ValuesIn(kPins), SeedName);

}  // namespace
}  // namespace xssd::db
