#include "db/tpcc.h"

#include <cstring>
#include <vector>

#include "common/logging.h"

namespace xssd::db {

// Transaction mix (percent; spec-standard).
constexpr uint32_t kNewOrderPct = 45;
constexpr uint32_t kPaymentPct = 43;
constexpr uint32_t kOrderStatusPct = 4;
constexpr uint32_t kDeliveryPct = 4;
// stock_level = remainder.

// Simulated CPU cost per transaction type, calibrated so that 8 workers
// with no logging reach ≈300 ktxn/s — the ERMIA ceiling the paper's
// Figure 9 reports on its 8-core Xeon testbed.
constexpr sim::SimTime kNewOrderCpu = sim::Us(40);
constexpr sim::SimTime kPaymentCpu = sim::Us(15);
constexpr sim::SimTime kOrderStatusCpu = sim::Us(12);
constexpr sim::SimTime kDeliveryCpu = sim::Us(35);
constexpr sim::SimTime kStockLevelCpu = sim::Us(25);

const char* TpccTxnName(TpccTxnType type) {
  switch (type) {
    case TpccTxnType::kNewOrder:
      return "new-order";
    case TpccTxnType::kPayment:
      return "payment";
    case TpccTxnType::kOrderStatus:
      return "order-status";
    case TpccTxnType::kDelivery:
      return "delivery";
    case TpccTxnType::kStockLevel:
      return "stock-level";
  }
  return "?";
}

TpccWorkload::TpccWorkload(Database* db, TpccConfig config, uint64_t seed)
    : db_(db), config_(config), rng_(seed) {}

void TpccWorkload::PopulateRow(Table* table, uint64_t key,
                               const uint8_t** run) {
  std::memcpy(table->Emplace(key), *run, table->row_bytes());
  *run += table->row_bytes();
}

void TpccWorkload::InsertRandomRow(Transaction* txn, Table* table,
                                   uint64_t key) {
  rng_.FillLowBytes(txn->InsertInPlace(table, key), table->row_bytes());
}

void TpccWorkload::UpdateRandomBytes(Transaction* txn, Table* table,
                                     uint64_t key, size_t offset, size_t len) {
  rng_.FillLowBytes(txn->UpdateDeltaInPlace(table, key, offset, len), len);
}

void TpccWorkload::Populate() {
  warehouse_ = db_->CreateTable("warehouse", kWarehouseRow);
  district_ = db_->CreateTable("district", kDistrictRow);
  customer_ = db_->CreateTable("customer", kCustomerRow);
  item_ = db_->CreateTable("item", kItemRow);
  stock_ = db_->CreateTable("stock", kStockRow);
  orders_ = db_->CreateTable("orders", kOrderRow);
  order_line_ = db_->CreateTable("order_line", kOrderLineRow);
  new_order_ = db_->CreateTable("new_order", kNewOrderRow);
  history_ = db_->CreateTable("history", kHistoryRow);

  // Every row is one RNG draw per byte, in this order, so a warehouse's
  // rows are one run of the stream and so are the items'. Fill each run
  // at once and copy its rows out: one warehouse at a time, since staging
  // all of them would add their ~17 MiB to the peak RSS.
  const uint32_t customers = config_.populated_customers_per_district;
  const uint32_t items = config_.populated_items;
  std::vector<uint8_t> run(
      kWarehouseRow +
      kDistrictsPerWarehouse * (kDistrictRow + customers * kCustomerRow) +
      items * kStockRow);
  for (uint32_t w = 0; w < config_.warehouses; ++w) {
    rng_.FillLowBytes(run.data(), run.size());
    const uint8_t* row = run.data();
    PopulateRow(warehouse_, WarehouseKey(w), &row);
    for (uint32_t d = 0; d < kDistrictsPerWarehouse; ++d) {
      PopulateRow(district_, DistrictKey(w, d), &row);
      for (uint32_t c = 0; c < customers; ++c) {
        PopulateRow(customer_, CustomerKey(w, d, c), &row);
      }
    }
    for (uint32_t i = 0; i < items; ++i) {
      PopulateRow(stock_, StockKey(w, i), &row);
    }
  }
  run.resize(items * kItemRow);
  rng_.FillLowBytes(run.data(), run.size());
  const uint8_t* row = run.data();
  for (uint32_t i = 0; i < items; ++i) PopulateRow(item_, i, &row);
}

TpccTxnType TpccWorkload::NextType() {
  uint32_t roll = static_cast<uint32_t>(rng_.Uniform(100));
  if (roll < kNewOrderPct) return TpccTxnType::kNewOrder;
  roll -= kNewOrderPct;
  if (roll < kPaymentPct) return TpccTxnType::kPayment;
  roll -= kPaymentPct;
  if (roll < kOrderStatusPct) return TpccTxnType::kOrderStatus;
  roll -= kOrderStatusPct;
  if (roll < kDeliveryPct) return TpccTxnType::kDelivery;
  return TpccTxnType::kStockLevel;
}

sim::SimTime TpccWorkload::Prepare(TpccTxnType type, Transaction* txn) {
  switch (type) {
    case TpccTxnType::kNewOrder:
      DoNewOrder(txn);
      return kNewOrderCpu;
    case TpccTxnType::kPayment:
      DoPayment(txn);
      return kPaymentCpu;
    case TpccTxnType::kOrderStatus:
      DoOrderStatus(txn);
      return kOrderStatusCpu;
    case TpccTxnType::kDelivery:
      DoDelivery(txn);
      return kDeliveryCpu;
    case TpccTxnType::kStockLevel:
      DoStockLevel(txn);
      return kStockLevelCpu;
  }
  return 0;
}

void TpccWorkload::DoNewOrder(Transaction* txn) {
  uint32_t w = static_cast<uint32_t>(rng_.Uniform(config_.warehouses));
  uint32_t d = static_cast<uint32_t>(rng_.Uniform(kDistrictsPerWarehouse));
  uint32_t c = static_cast<uint32_t>(
      rng_.Uniform(config_.populated_customers_per_district));

  // Reads: warehouse tax, district (also RMW of next_o_id), customer.
  txn->Get(warehouse_, WarehouseKey(w));
  txn->Get(district_, DistrictKey(w, d));
  txn->Get(customer_, CustomerKey(w, d, c));

  // District next_o_id increment: 8-byte delta at offset 0.
  uint64_t order_id = next_order_id_++;
  std::memcpy(txn->UpdateDeltaInPlace(district_, DistrictKey(w, d), 0, 8),
              &order_id, 8);

  // Insert ORDER and NEW-ORDER rows.
  InsertRandomRow(txn, orders_, order_id);
  InsertRandomRow(txn, new_order_, order_id);

  // 5..15 order lines, each: read item, stock quantity delta, insert line.
  uint32_t lines = static_cast<uint32_t>(rng_.UniformRange(5, 15));
  for (uint32_t l = 0; l < lines; ++l) {
    uint32_t i = static_cast<uint32_t>(rng_.Uniform(config_.populated_items));
    txn->Get(item_, i);
    // Stock: quantity (2B) + ytd (4B) + order/remote counts (4B) ≈ 10B,
    // plus the spec's s_dist_xx copy in the order line, not in stock.
    UpdateRandomBytes(txn, stock_, StockKey(w, i), 16, 10);
    InsertRandomRow(txn, order_line_, order_id * 16 + l);
  }
}

void TpccWorkload::DoPayment(Transaction* txn) {
  uint32_t w = static_cast<uint32_t>(rng_.Uniform(config_.warehouses));
  uint32_t d = static_cast<uint32_t>(rng_.Uniform(kDistrictsPerWarehouse));
  uint32_t c = static_cast<uint32_t>(
      rng_.Uniform(config_.populated_customers_per_district));

  // Warehouse + district YTD deltas (8B each), customer balance delta
  // (~24B: balance, ytd_payment, payment_cnt, data timestamp), history
  // insert.
  UpdateRandomBytes(txn, warehouse_, WarehouseKey(w), 8, 8);
  UpdateRandomBytes(txn, district_, DistrictKey(w, d), 8, 8);
  UpdateRandomBytes(txn, customer_, CustomerKey(w, d, c), 32, 24);
  InsertRandomRow(txn, history_, next_history_id_++);
}

void TpccWorkload::DoOrderStatus(Transaction* txn) {
  // Read-only: customer + last order + its lines.
  uint32_t w = static_cast<uint32_t>(rng_.Uniform(config_.warehouses));
  uint32_t d = static_cast<uint32_t>(rng_.Uniform(kDistrictsPerWarehouse));
  uint32_t c = static_cast<uint32_t>(
      rng_.Uniform(config_.populated_customers_per_district));
  txn->Get(customer_, CustomerKey(w, d, c));
  if (next_order_id_ > 1) {
    uint64_t o = 1 + rng_.Uniform(next_order_id_ - 1);
    txn->Get(orders_, o);
    for (uint32_t l = 0; l < 5; ++l) txn->Get(order_line_, o * 16 + l);
  }
}

void TpccWorkload::DoDelivery(Transaction* txn) {
  // Deliver up to 10 pending orders: order carrier delta + customer
  // balance delta per order; delete the NEW-ORDER row.
  uint32_t w = static_cast<uint32_t>(rng_.Uniform(config_.warehouses));
  uint32_t d = static_cast<uint32_t>(rng_.Uniform(kDistrictsPerWarehouse));
  uint32_t c = static_cast<uint32_t>(
      rng_.Uniform(config_.populated_customers_per_district));
  uint32_t delivered = 0;
  for (uint32_t attempt = 0; attempt < 10 && next_order_id_ > 1; ++attempt) {
    uint64_t o = 1 + rng_.Uniform(next_order_id_ - 1);
    if (new_order_->Get(o) == nullptr) continue;
    txn->Erase(new_order_, o);
    if (orders_->Get(o) != nullptr) {
      UpdateRandomBytes(txn, orders_, o, 0, 8);  // carrier id + ts
    }
    UpdateRandomBytes(txn, customer_, CustomerKey(w, d, c), 32, 16);
    ++delivered;
  }
  (void)delivered;
}

void TpccWorkload::DoStockLevel(Transaction* txn) {
  // Read-only: district + recent order lines + stock rows.
  uint32_t w = static_cast<uint32_t>(rng_.Uniform(config_.warehouses));
  uint32_t d = static_cast<uint32_t>(rng_.Uniform(kDistrictsPerWarehouse));
  txn->Get(district_, DistrictKey(w, d));
  for (uint32_t n = 0; n < 20; ++n) {
    uint32_t i = static_cast<uint32_t>(rng_.Uniform(config_.populated_items));
    txn->Get(stock_, StockKey(w, i));
  }
}

}  // namespace xssd::db
