#ifndef XSSD_DB_TPCC_H_
#define XSSD_DB_TPCC_H_

#include <cstdint>

#include "db/database.h"
#include "sim/random.h"
#include "sim/time.h"

namespace xssd::db {

/// \brief TPC-C workload parameters.
///
/// Row sizes follow the spec's minima. The transaction mix and the
/// simulated CPU cost of each transaction type are fixed (tpcc.cc).
struct TpccConfig {
  uint32_t warehouses = 16;  ///< paper §6: 16 warehouses

  /// Scale knob for data population (rows actually materialized); the
  /// full spec population is pointless for log-path experiments.
  uint32_t populated_customers_per_district = 64;
  uint32_t populated_items = 2048;
};

/// Transaction types in the mix.
enum class TpccTxnType {
  kNewOrder,
  kPayment,
  kOrderStatus,
  kDelivery,
  kStockLevel,
};

const char* TpccTxnName(TpccTxnType type);

/// \brief TPC-C schema + transaction logic over the mini database.
///
/// All five transaction profiles are implemented with real row reads,
/// updates (delta-logged), and inserts, so the WAL carries a realistic
/// record-size distribution — the property Figure 9/11 depend on.
class TpccWorkload {
 public:
  TpccWorkload(Database* db, TpccConfig config, uint64_t seed);

  /// Create tables and populate warehouses/districts/customers/items.
  void Populate();

  /// Pick a type per the mix.
  TpccTxnType NextType();

  /// Build (but do not commit) one transaction of the given type.
  /// Returns its simulated CPU cost.
  sim::SimTime Prepare(TpccTxnType type, Transaction* txn);

  Table* warehouse() { return warehouse_; }
  Table* district() { return district_; }
  Table* customer() { return customer_; }
  Table* item() { return item_; }
  Table* stock() { return stock_; }
  Table* orders() { return orders_; }
  Table* order_line() { return order_line_; }
  Table* new_order() { return new_order_; }
  Table* history() { return history_; }

  uint64_t next_order_id() const { return next_order_id_; }

  static constexpr uint32_t kDistrictsPerWarehouse = 10;

  /// Row keys of the populated tables; an item's key is its number.
  static uint64_t WarehouseKey(uint32_t w) { return w; }
  static uint64_t DistrictKey(uint32_t w, uint32_t d) {
    return static_cast<uint64_t>(w) * 100 + d;
  }
  static uint64_t CustomerKey(uint32_t w, uint32_t d, uint32_t c) {
    return (static_cast<uint64_t>(w) * 100 + d) * 100000 + c;
  }
  static uint64_t StockKey(uint32_t w, uint32_t i) {
    return static_cast<uint64_t>(w) * 1000000 + i;
  }

 private:
  // Row sizes (spec-minimum bytes).
  static constexpr size_t kWarehouseRow = 89;
  static constexpr size_t kDistrictRow = 95;
  static constexpr size_t kCustomerRow = 655;
  static constexpr size_t kItemRow = 82;
  static constexpr size_t kStockRow = 306;
  static constexpr size_t kOrderRow = 24;
  static constexpr size_t kOrderLineRow = 54;
  static constexpr size_t kNewOrderRow = 8;
  static constexpr size_t kHistoryRow = 46;

  /// Insert (or refill) `key`'s row of `table` from `*run`, and step
  /// `*run` past the row.
  void PopulateRow(Table* table, uint64_t key, const uint8_t** run);
  /// Buffer an insert of a random row, filled in place.
  void InsertRandomRow(Transaction* txn, Table* table, uint64_t key);
  /// Buffer a delta of `len` random bytes at `offset`, filled in place.
  void UpdateRandomBytes(Transaction* txn, Table* table, uint64_t key,
                         size_t offset, size_t len);

  void DoNewOrder(Transaction* txn);
  void DoPayment(Transaction* txn);
  void DoOrderStatus(Transaction* txn);
  void DoDelivery(Transaction* txn);
  void DoStockLevel(Transaction* txn);

  Database* db_;
  TpccConfig config_;
  sim::Rng rng_;

  Table* warehouse_ = nullptr;
  Table* district_ = nullptr;
  Table* customer_ = nullptr;
  Table* item_ = nullptr;
  Table* stock_ = nullptr;
  Table* orders_ = nullptr;
  Table* order_line_ = nullptr;
  Table* new_order_ = nullptr;
  Table* history_ = nullptr;

  uint64_t next_order_id_ = 1;
  uint64_t next_history_id_ = 1;
};

}  // namespace xssd::db

#endif  // XSSD_DB_TPCC_H_
