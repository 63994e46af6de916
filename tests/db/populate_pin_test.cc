// Pins the rows TpccWorkload::Populate writes. wal_pin_test sees only what
// the workload draws after Populate, yet the populated rows are model state
// too: transactions read them and log deltas against them. Every row of the
// five populated tables is hashed in the order Populate draws it.

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "db/log_backend.h"
#include "db/log_manager.h"
#include "db/tpcc.h"
#include "fnv1a.h"

namespace xssd::db {
namespace {

struct PopulatePin {
  uint64_t seed;
  uint64_t rows_fnv1a;
};

void PrintTo(const PopulatePin& pin, std::ostream* os) {
  *os << "seed " << pin.seed;
}

class PopulatePinTest : public ::testing::TestWithParam<PopulatePin> {};

TEST_P(PopulatePinTest, PopulatedRowsAreByteIdentical) {
  const PopulatePin& pin = GetParam();
  sim::Simulator sim;
  NoLogBackend backend(&sim);
  LogManager log(&sim, &backend);
  Database database(&log);
  const TpccConfig config;
  TpccWorkload workload(&database, config, pin.seed);
  workload.Populate();

  uint64_t fnv = kFnv1aBasis;
  size_t rows = 0;
  auto hash_row = [&](Table* table, uint64_t key) {
    const uint8_t* row = table->Get(key);
    ASSERT_NE(row, nullptr) << table->name() << " key " << key;
    fnv = Fnv1a(fnv, row, table->row_bytes());
    ++rows;
  };
  // Stream order.
  for (uint32_t w = 0; w < config.warehouses; ++w) {
    hash_row(workload.warehouse(), TpccWorkload::WarehouseKey(w));
    for (uint32_t d = 0; d < TpccWorkload::kDistrictsPerWarehouse; ++d) {
      hash_row(workload.district(), TpccWorkload::DistrictKey(w, d));
      for (uint32_t c = 0; c < config.populated_customers_per_district; ++c) {
        hash_row(workload.customer(), TpccWorkload::CustomerKey(w, d, c));
      }
    }
    for (uint32_t i = 0; i < config.populated_items; ++i) {
      hash_row(workload.stock(), TpccWorkload::StockKey(w, i));
    }
  }
  for (uint32_t i = 0; i < config.populated_items; ++i) {
    hash_row(workload.item(), i);
  }

  EXPECT_EQ(rows, 16u * (1 + 10 * (1 + 64) + 2048) + 2048);
  EXPECT_EQ(fnv, pin.rows_fnv1a);
}

// Recorded from the one-draw-per-row-byte Populate. A mismatch means the
// populated tables changed: fix the code, not these values.
constexpr PopulatePin kPins[] = {
    {1, 0x5A584AB1558F8159ull},
    {1234, 0x312920970FF24B36ull},
};

std::string SeedName(const testing::TestParamInfo<PopulatePin>& info) {
  return "seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PopulatePinTest, testing::ValuesIn(kPins),
                         SeedName);

}  // namespace
}  // namespace xssd::db
