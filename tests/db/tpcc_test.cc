#include "db/tpcc.h"

#include <gtest/gtest.h>

#include "db/log_backend.h"
#include "db/workload.h"

namespace xssd::db {
namespace {

class TpccTest : public ::testing::Test {
 protected:
  TpccTest()
      : backend_(&sim_),
        log_(&sim_, &backend_),
        db_(&log_),
        workload_(&db_, SmallTpcc(), 42) {
    workload_.Populate();
  }

  static TpccConfig SmallTpcc() {
    TpccConfig config;
    config.warehouses = 2;
    config.populated_customers_per_district = 16;
    config.populated_items = 128;
    return config;
  }

  sim::Simulator sim_;
  NoLogBackend backend_;
  LogManager log_;
  Database db_;
  TpccWorkload workload_;
};

TEST_F(TpccTest, PopulationCountsMatchConfig) {
  EXPECT_EQ(workload_.warehouse()->row_count(), 2u);
  EXPECT_EQ(workload_.district()->row_count(), 2u * 10);
  EXPECT_EQ(workload_.customer()->row_count(), 2u * 10 * 16);
  EXPECT_EQ(workload_.item()->row_count(), 128u);
  EXPECT_EQ(workload_.stock()->row_count(), 2u * 128);
  EXPECT_EQ(workload_.orders()->row_count(), 0u);
}

TEST_F(TpccTest, MixApproximatesSpec) {
  int counts[5] = {0};
  for (int i = 0; i < 20000; ++i) {
    counts[static_cast<int>(workload_.NextType())]++;
  }
  EXPECT_NEAR(counts[0] / 20000.0, 0.45, 0.02);  // new-order
  EXPECT_NEAR(counts[1] / 20000.0, 0.43, 0.02);  // payment
  EXPECT_NEAR(counts[2] / 20000.0, 0.04, 0.01);
  EXPECT_NEAR(counts[3] / 20000.0, 0.04, 0.01);
  EXPECT_NEAR(counts[4] / 20000.0, 0.04, 0.01);
}

TEST_F(TpccTest, NewOrderInsertsOrderRows) {
  Transaction txn(&db_);
  sim::SimTime cpu = workload_.Prepare(TpccTxnType::kNewOrder, &txn);
  EXPECT_GT(cpu, 0u);
  EXPECT_GE(txn.write_count(), 1u + 2u + 2 * 5u);  // D + O/NO + >=5 lines
  txn.Commit([](Status) {});
  sim_.Run();
  EXPECT_EQ(workload_.orders()->row_count(), 1u);
  EXPECT_EQ(workload_.new_order()->row_count(), 1u);
  EXPECT_GE(workload_.order_line()->row_count(), 5u);
}

TEST_F(TpccTest, PaymentWritesHistoryAndDeltas) {
  Transaction txn(&db_);
  workload_.Prepare(TpccTxnType::kPayment, &txn);
  EXPECT_EQ(txn.write_count(), 4u);  // W + D + C deltas + H insert
  txn.Commit([](Status) {});
  sim_.Run();
  EXPECT_EQ(workload_.history()->row_count(), 1u);
}

TEST_F(TpccTest, ReadOnlyTransactionsLogAlmostNothing) {
  Transaction txn(&db_);
  workload_.Prepare(TpccTxnType::kOrderStatus, &txn);
  EXPECT_EQ(txn.write_count(), 0u);
  Transaction txn2(&db_);
  workload_.Prepare(TpccTxnType::kStockLevel, &txn2);
  EXPECT_EQ(txn2.write_count(), 0u);
}

TEST_F(TpccTest, LogFootprintsAreRealistic) {
  // NewOrder carries the bulk of the log volume; Payment is light.
  Transaction no(&db_);
  workload_.Prepare(TpccTxnType::kNewOrder, &no);
  Transaction pay(&db_);
  workload_.Prepare(TpccTxnType::kPayment, &pay);
  EXPECT_GT(no.LogBytes(), 500u);
  EXPECT_LT(no.LogBytes(), 3000u);
  EXPECT_GT(pay.LogBytes(), 100u);
  EXPECT_LT(pay.LogBytes(), 500u);
  EXPECT_GT(no.LogBytes(), pay.LogBytes());
}

TEST_F(TpccTest, OrderIdsAdvanceMonotonically) {
  uint64_t before = workload_.next_order_id();
  for (int i = 0; i < 3; ++i) {
    Transaction txn(&db_);
    workload_.Prepare(TpccTxnType::kNewOrder, &txn);
    txn.Commit([](Status) {});
  }
  sim_.Run();
  EXPECT_EQ(workload_.next_order_id(), before + 3);
}

TEST_F(TpccTest, WorkloadDriverProducesThroughput) {
  WorkloadDriver driver(&sim_, &db_, &workload_, 2);
  WorkloadResult result = driver.Run(sim::Ms(10), sim::Ms(50));
  EXPECT_GT(result.committed_txns, 1000u);
  EXPECT_GT(result.txns_per_sec, 20000.0);
  EXPECT_GT(result.latency_us.count(), 100u);
  EXPECT_GT(result.avg_log_bytes_per_txn, 200.0);
  EXPECT_LT(result.avg_log_bytes_per_txn, 2000.0);
}

TEST_F(TpccTest, EmptyMeasureWindowReportsZeroRates) {
  // A warm-up-only run, as perfbench's tpcc_villars makes on every episode.
  WorkloadDriver driver(&sim_, &db_, &workload_, 2);
  WorkloadResult result = driver.Run(sim::Ms(5), 0);
  EXPECT_EQ(result.txns_per_sec, 0.0);
  EXPECT_EQ(result.log_bytes_per_sec, 0.0);
}

TEST_F(TpccTest, ThroughputScalesWithWorkers) {
  sim::Simulator sim1, sim4;
  NoLogBackend b1(&sim1), b4(&sim4);
  LogManager l1(&sim1, &b1), l4(&sim4, &b4);
  Database d1(&l1), d4(&l4);
  TpccWorkload w1(&d1, SmallTpcc(), 42), w4(&d4, SmallTpcc(), 42);
  w1.Populate();
  w4.Populate();
  WorkloadDriver driver1(&sim1, &d1, &w1, 1);
  WorkloadDriver driver4(&sim4, &d4, &w4, 4);
  auto r1 = driver1.Run(sim::Ms(10), sim::Ms(50));
  auto r4 = driver4.Run(sim::Ms(10), sim::Ms(50));
  EXPECT_NEAR(r4.txns_per_sec / r1.txns_per_sec, 4.0, 0.4);
}

}  // namespace
}  // namespace xssd::db
