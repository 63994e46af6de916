// End-to-end: the mini database runs TPC-C with its WAL on a Villars
// device; the full log is then read back from the device's conventional
// side and replayed into a fresh database, which must reach the identical
// state. This exercises every layer at once: DB → group commit →
// x_pwrite/x_fsync → CMB → destage → FTL → flash → NVMe reads.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "db/log_backend.h"
#include "db/log_manager.h"
#include "db/tpcc.h"
#include "db/workload.h"
#include "host/node.h"
#include "host/xcalls.h"

namespace xssd {
namespace {

core::VillarsConfig DeviceConfig() {
  core::VillarsConfig config;
  config.geometry.blocks_per_plane = 32;
  config.geometry.pages_per_block = 64;
  config.destage.ring_lba_count = 2048;
  return config;
}

db::TpccConfig SmallTpcc() {
  db::TpccConfig config;
  config.warehouses = 2;
  config.populated_customers_per_district = 16;
  config.populated_items = 128;
  return config;
}

void ApplyRecord(db::Database* db, const db::LogRecord& record) {
  db::Table* table = db->GetTable(record.table_id);
  if (table == nullptr) return;
  switch (record.op) {
    case db::LogOp::kInsert:
      table->Put(record.key, record.payload);
      break;
    case db::LogOp::kUpdate: {
      uint32_t offset = 0;
      std::memcpy(&offset, record.payload.data(), 4);
      std::vector<uint8_t> delta(record.payload.begin() + 4,
                                 record.payload.end());
      table->ApplyDelta(record.key, offset, delta);
      break;
    }
    case db::LogOp::kDelete:
      table->Erase(record.key);
      break;
    case db::LogOp::kCommit:
      break;
  }
}

// `key` has a row in both tables or in neither, and the rows are equal.
bool RowEqual(db::Table* a, db::Table* b, uint64_t key) {
  if (a->row_bytes() != b->row_bytes()) return false;
  const uint8_t* ra = a->Get(key);
  const uint8_t* rb = b->Get(key);
  if ((ra == nullptr) != (rb == nullptr)) return false;
  return ra == nullptr || std::memcmp(ra, rb, a->row_bytes()) == 0;
}

bool TablesEqual(db::Table* a, db::Table* b, uint64_t key_limit) {
  for (uint64_t key = 0; key < key_limit; ++key) {
    if (!RowEqual(a, b, key)) return false;
  }
  return true;
}

TEST(EndToEnd, TpccWalThroughVillarsReplaysToIdenticalState) {
  sim::Simulator sim;
  host::StorageNode node(&sim, DeviceConfig(), pcie::FabricConfig{}, "e2e");
  ASSERT_TRUE(node.Init().ok());

  db::VillarsLogBackend backend(&node.client());
  db::LogManager log(&sim, &backend);
  db::Database source(&log);
  db::TpccWorkload workload(&source, SmallTpcc(), 99);
  workload.Populate();

  db::WorkloadDriver driver(&sim, &source, &workload, 4);
  db::WorkloadResult result = driver.Run(sim::Ms(5), sim::Ms(40));
  ASSERT_GT(result.committed_txns, 500u);

  // Sync and pull the entire durable log back off the conventional side.
  ASSERT_EQ(host::x_fsync(sim, node.client()), 0);
  uint64_t durable = log.durable_lsn();
  ASSERT_GT(durable, 0u);
  std::vector<uint8_t> wal(durable);
  ASSERT_EQ(host::x_pread(sim, node.client(), node.driver(), wal.data(),
                          wal.size()),
            static_cast<ssize_t>(wal.size()));

  // Replay into a fresh database with the same schema (but no activity).
  bool torn = false;
  auto records = db::ParseLogStream(wal, &torn);
  EXPECT_FALSE(torn);
  ASSERT_GT(records.size(), 1000u);

  sim::Simulator sim2;
  db::NoLogBackend null_backend(&sim2);
  db::LogManager null_log(&sim2, &null_backend);
  db::Database replica(&null_log);
  db::TpccWorkload replica_schema(&replica, SmallTpcc(), 99);
  replica_schema.Populate();  // same seed => same initial rows
  const uint8_t* warehouse0 = replica_schema.warehouse()->Get(0);
  const std::vector<uint8_t> populated_warehouse0(
      warehouse0, warehouse0 + replica_schema.warehouse()->row_bytes());
  for (const auto& record : records) ApplyRecord(&replica, record);

  // Compare the mutable tables row-by-row over their key spaces.
  EXPECT_TRUE(TablesEqual(workload.district(), replica_schema.district(),
                          2 * 100 + 100));
  EXPECT_TRUE(TablesEqual(workload.orders(), replica_schema.orders(),
                          workload.next_order_id()));
  EXPECT_TRUE(TablesEqual(workload.new_order(), replica_schema.new_order(),
                          workload.next_order_id()));
  // Order lines: spot-check a window.
  EXPECT_TRUE(TablesEqual(workload.order_line(), replica_schema.order_line(),
                          workload.next_order_id() * 16));
  EXPECT_EQ(workload.history()->row_count(),
            replica_schema.history()->row_count());

  // Payment, new-order and delivery also update populated warehouse,
  // customer and stock rows by delta. Compare those over their populated
  // keys: customer keys reach ~10^7, too many to scan.
  using db::TpccWorkload;
  const db::TpccConfig config = SmallTpcc();
  for (uint32_t w = 0; w < config.warehouses; ++w) {
    const uint64_t warehouse = TpccWorkload::WarehouseKey(w);
    EXPECT_TRUE(RowEqual(workload.warehouse(), replica_schema.warehouse(),
                         warehouse))
        << "warehouse " << warehouse;
    for (uint32_t d = 0; d < TpccWorkload::kDistrictsPerWarehouse; ++d) {
      for (uint32_t c = 0; c < config.populated_customers_per_district; ++c) {
        const uint64_t key = TpccWorkload::CustomerKey(w, d, c);
        EXPECT_TRUE(
            RowEqual(workload.customer(), replica_schema.customer(), key))
            << "customer " << key;
      }
    }
    for (uint32_t i = 0; i < config.populated_items; ++i) {
      const uint64_t key = TpccWorkload::StockKey(w, i);
      EXPECT_TRUE(RowEqual(workload.stock(), replica_schema.stock(), key))
          << "stock " << key;
    }
  }
  // The replay did reach them.
  EXPECT_NE(std::memcmp(populated_warehouse0.data(),
                        replica_schema.warehouse()->Get(0),
                        populated_warehouse0.size()),
            0);
}

TEST(EndToEnd, DualWorkloadSharesOneDevice) {
  // The paper's headline usability claim: the same device serves the log
  // on the fast side and regular block I/O on the conventional side,
  // concurrently, without either corrupting the other.
  sim::Simulator sim;
  host::StorageNode node(&sim, DeviceConfig(), pcie::FabricConfig{}, "dual");
  ASSERT_TRUE(node.Init().ok());

  // Block workload in a region above the destage ring.
  uint32_t block = node.driver().block_bytes();
  std::vector<uint8_t> block_data(block);
  for (size_t i = 0; i < block_data.size(); ++i) {
    block_data[i] = static_cast<uint8_t>(i * 3);
  }
  int block_writes_done = 0;
  for (int i = 0; i < 20; ++i) {
    node.driver().Write(4096 + i, block_data.data(), 1,
                        [&](Status s) {
                          ASSERT_TRUE(s.ok());
                          ++block_writes_done;
                        });
  }

  // Log workload on the fast side, interleaved.
  std::vector<uint8_t> wal(40000);
  for (size_t i = 0; i < wal.size(); ++i) wal[i] = static_cast<uint8_t>(i);
  ASSERT_EQ(host::x_pwrite(sim, node.client(), wal.data(), wal.size()),
            static_cast<ssize_t>(wal.size()));
  ASSERT_EQ(host::x_fsync(sim, node.client()), 0);
  sim.Run();
  EXPECT_EQ(block_writes_done, 20);

  // Both data sets intact.
  std::vector<uint8_t> wal_back(wal.size());
  ASSERT_EQ(host::x_pread(sim, node.client(), node.driver(), wal_back.data(),
                          wal_back.size()),
            static_cast<ssize_t>(wal.size()));
  EXPECT_EQ(wal_back, wal);
  for (int i = 0; i < 20; ++i) {
    bool checked = false;
    node.driver().Read(4096 + i, 1,
                       [&](Status s, std::vector<uint8_t> data) {
                         ASSERT_TRUE(s.ok());
                         EXPECT_EQ(data, block_data);
                         checked = true;
                       });
    sim.RunWhile([&]() { return checked; });
  }
}

}  // namespace
}  // namespace xssd
