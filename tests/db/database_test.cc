#include "db/database.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "db/log_backend.h"
#include "db/tpcc.h"

namespace xssd::db {
namespace {

/// A copy of `key`'s row, empty when there is none.
std::vector<uint8_t> RowOf(const Table* table, uint64_t key) {
  const uint8_t* row = table->Get(key);
  if (row == nullptr) return {};
  return std::vector<uint8_t>(row, row + table->row_bytes());
}

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest()
      : backend_(&sim_), log_(&sim_, &backend_, FastFlush()), db_(&log_) {}

  static LogManagerConfig FastFlush() {
    LogManagerConfig config;
    config.group_bytes = 1;  // flush every append immediately
    config.flush_timeout = sim::Us(1);
    return config;
  }

  sim::Simulator sim_;
  NoLogBackend backend_;
  LogManager log_;
  Database db_;
};

TEST_F(DatabaseTest, CreateAndLookupTables) {
  Table* t0 = db_.CreateTable("alpha");
  Table* t1 = db_.CreateTable("beta");
  EXPECT_EQ(t0->id(), 0u);
  EXPECT_EQ(t1->id(), 1u);
  EXPECT_EQ(db_.GetTable(0), t0);
  EXPECT_EQ(db_.GetTableByName("beta"), t1);
  EXPECT_EQ(db_.GetTable(5), nullptr);
  EXPECT_EQ(db_.GetTableByName("gamma"), nullptr);
}

TEST_F(DatabaseTest, InsertCommitsApplyAndLog) {
  Table* table = db_.CreateTable("t");
  Transaction txn(&db_);
  txn.Insert(table, 5, {1, 2, 3});
  EXPECT_EQ(table->Get(5), nullptr);  // not visible before commit

  bool durable = false;
  txn.Commit([&](Status s) { durable = s.ok(); });
  ASSERT_NE(table->Get(5), nullptr);  // applied at commit
  EXPECT_EQ(RowOf(table, 5), (std::vector<uint8_t>{1, 2, 3}));
  sim_.Run();
  EXPECT_TRUE(durable);
  EXPECT_GT(log_.durable_lsn(), 0u);
}

TEST_F(DatabaseTest, UpdateDeltaPatchesRow) {
  Table* table = db_.CreateTable("t");
  {
    Transaction txn(&db_);
    txn.Insert(table, 1, std::vector<uint8_t>(10, 0));
    txn.Commit([](Status) {});
  }
  {
    Transaction txn(&db_);
    txn.UpdateDelta(table, 1, 4, {9, 9});
    txn.Commit([](Status) {});
  }
  sim_.Run();
  const uint8_t* row = table->Get(1);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row[3], 0);
  EXPECT_EQ(row[4], 9);
  EXPECT_EQ(row[5], 9);
  EXPECT_EQ(row[6], 0);
}

TEST_F(DatabaseTest, DeltaBeyondRowRejected) {
  Table* table = db_.CreateTable("t");
  table->Put(1, std::vector<uint8_t>(4, 0));
  EXPECT_TRUE(table->ApplyDelta(1, 3, {1, 2}).IsOutOfRange());
  EXPECT_TRUE(table->ApplyDelta(99, 0, {1}).IsNotFound());
}

TEST_F(DatabaseTest, PutOfWrongRowSizeRejected) {
  Table* sized = db_.CreateTable("sized", 8);
  EXPECT_EQ(sized->row_bytes(), 8u);
  EXPECT_EQ(sized->Put(1, std::vector<uint8_t>(7, 1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sized->Put(1, std::vector<uint8_t>(9, 1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sized->Get(1), nullptr);
  EXPECT_EQ(sized->row_count(), 0u);
  ASSERT_TRUE(sized->Put(1, std::vector<uint8_t>(8, 1)).ok());
  // A rejected Put leaves the existing row alone.
  EXPECT_EQ(sized->Put(1, std::vector<uint8_t>(4, 2)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RowOf(sized, 1), std::vector<uint8_t>(8, 1));

  // Without a declared size, the first non-empty Put fixes it.
  Table* unsized = db_.CreateTable("unsized");
  EXPECT_EQ(unsized->row_bytes(), 0u);
  EXPECT_EQ(unsized->Put(1, std::vector<uint8_t>{}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(unsized->Put(1, std::vector<uint8_t>(3, 5)).ok());
  EXPECT_EQ(unsized->row_bytes(), 3u);
  EXPECT_EQ(unsized->Put(2, std::vector<uint8_t>(4, 5)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(unsized->row_count(), 1u);
}

TEST_F(DatabaseTest, EraseThenPutReusesRow) {
  Table* table = db_.CreateTable("t", 16);
  ASSERT_TRUE(table->Put(1, std::vector<uint8_t>(16, 0xAA)).ok());
  ASSERT_TRUE(table->Put(2, std::vector<uint8_t>(16, 0xBB)).ok());
  const uint8_t* freed = table->Get(1);
  EXPECT_TRUE(table->Erase(1));
  EXPECT_FALSE(table->Erase(1));
  EXPECT_EQ(table->Get(1), nullptr);
  ASSERT_TRUE(table->Put(3, std::vector<uint8_t>(16, 0xCC)).ok());
  EXPECT_EQ(table->Get(3), freed);  // the erased row's slot, recycled
  EXPECT_EQ(RowOf(table, 3), std::vector<uint8_t>(16, 0xCC));
  EXPECT_EQ(RowOf(table, 2), std::vector<uint8_t>(16, 0xBB));
  EXPECT_EQ(table->row_count(), 2u);
}

TEST_F(DatabaseTest, GrowthPastInitialIndexKeepsRowsReadable) {
  // Enough rows to double the index many times and fill many arena chunks;
  // every row must still read back with its own bytes.
  Table* table = db_.CreateTable("t", 40);
  auto row_for = [](uint64_t key) {
    std::vector<uint8_t> row(40);
    for (size_t i = 0; i < row.size(); ++i) {
      row[i] = static_cast<uint8_t>(key * 31 + i);
    }
    return row;
  };
  constexpr uint64_t kRows = 20000;
  for (uint64_t n = 0; n < kRows; ++n) {
    ASSERT_TRUE(table->Put(n * 1000003, row_for(n * 1000003)).ok());
  }
  EXPECT_EQ(table->row_count(), kRows);
  for (uint64_t n = 0; n < kRows; ++n) {
    ASSERT_EQ(RowOf(table, n * 1000003), row_for(n * 1000003)) << "row " << n;
  }
  EXPECT_EQ(table->Get(1), nullptr);
}

TEST_F(DatabaseTest, TableMatchesMapUnderChurn) {
  // Puts, deltas and erases over a small key space keep probe runs long,
  // so erases must shift entries back correctly; a std::map is the model.
  Table* table = db_.CreateTable("t", 8);
  std::map<uint64_t, std::vector<uint8_t>> model;
  sim::Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    uint64_t key = rng.Uniform(300) * 64;
    uint8_t byte = static_cast<uint8_t>(rng.Next());
    switch (rng.Uniform(3)) {
      case 0:
        ASSERT_TRUE(table->Put(key, std::vector<uint8_t>(8, byte)).ok());
        model[key] = std::vector<uint8_t>(8, byte);
        break;
      case 1: {
        Status status = table->ApplyDelta(key, 3, {byte});
        auto it = model.find(key);
        ASSERT_EQ(status.ok(), it != model.end());
        if (it != model.end()) it->second[3] = byte;
        break;
      }
      case 2:
        ASSERT_EQ(table->Erase(key), model.erase(key) > 0);
        break;
    }
  }
  EXPECT_EQ(table->row_count(), model.size());
  for (uint64_t k = 0; k < 300; ++k) {
    auto it = model.find(k * 64);
    EXPECT_EQ(RowOf(table, k * 64),
              it == model.end() ? std::vector<uint8_t>{} : it->second)
        << "key " << k * 64;
  }
}

TEST_F(DatabaseTest, EraseRemovesRow) {
  Table* table = db_.CreateTable("t");
  {
    Transaction txn(&db_);
    txn.Insert(table, 2, {7});
    txn.Commit([](Status) {});
  }
  {
    Transaction txn(&db_);
    txn.Erase(table, 2);
    txn.Commit([](Status) {});
  }
  sim_.Run();
  EXPECT_EQ(table->Get(2), nullptr);
}

TEST_F(DatabaseTest, LogBytesMatchesSerializedFootprint) {
  Table* table = db_.CreateTable("t");
  Transaction txn(&db_);
  txn.Insert(table, 1, std::vector<uint8_t>(100, 1));
  txn.UpdateDelta(table, 1, 0, std::vector<uint8_t>(20, 2));
  size_t expected = (LogRecord::kHeaderBytes + 100) +
                    (LogRecord::kHeaderBytes + 24) +  // 4B offset prefix
                    LogRecord::kHeaderBytes;          // commit marker
  EXPECT_EQ(txn.LogBytes(), expected);
}

TEST_F(DatabaseTest, WalReplayReproducesTableState) {
  // Capture the WAL, replay it into a second database, compare states —
  // the recoverability property the whole system exists for.
  class CapturingBackend : public LogBackend {
   public:
    explicit CapturingBackend(sim::Simulator* sim) : sim_(sim) {}
    void AppendDurable(const uint8_t* data, size_t len,
                       std::function<void(Status)> done) override {
      Account(len);
      wal.insert(wal.end(), data, data + len);
      sim_->Schedule(0, [done = std::move(done)]() { done(Status::OK()); });
    }
    std::string name() const override { return "capture"; }
    int data_movements_per_byte() const override { return 0; }
    std::vector<uint8_t> wal;
    sim::Simulator* sim_;
  };

  sim::Simulator sim;
  CapturingBackend backend(&sim);
  LogManager log(&sim, &backend, FastFlush());
  Database source(&log);
  Table* table = source.CreateTable("t");

  sim::Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    Transaction txn(&source);
    uint64_t key = rng.Uniform(30);
    switch (rng.Uniform(3)) {
      case 0:
        txn.Insert(table, key, std::vector<uint8_t>(
                                   16, static_cast<uint8_t>(rng.Next())));
        break;
      case 1:
        if (table->Get(key) != nullptr) {
          txn.UpdateDelta(table, key, rng.Uniform(8),
                          std::vector<uint8_t>(
                              4, static_cast<uint8_t>(rng.Next())));
        }
        break;
      case 2:
        txn.Erase(table, key);
        break;
    }
    txn.Commit([](Status) {});
    sim.Run();
  }

  // Replay.
  bool torn = false;
  auto records = ParseLogStream(backend.wal, &torn);
  EXPECT_FALSE(torn);
  NoLogBackend null_backend(&sim);
  LogManager replay_log(&sim, &null_backend, FastFlush());
  Database replica(&replay_log);
  Table* replica_table = replica.CreateTable("t");
  for (const LogRecord& record : records) {
    switch (record.op) {
      case LogOp::kInsert:
        replica_table->Put(record.key, record.payload);
        break;
      case LogOp::kUpdate: {
        uint32_t offset = 0;
        std::memcpy(&offset, record.payload.data(), 4);
        std::vector<uint8_t> delta(record.payload.begin() + 4,
                                   record.payload.end());
        replica_table->ApplyDelta(record.key, offset, delta);
        break;
      }
      case LogOp::kDelete:
        replica_table->Erase(record.key);
        break;
      case LogOp::kCommit:
        break;
    }
  }
  // Compare all 30 candidate keys.
  for (uint64_t key = 0; key < 30; ++key) {
    const uint8_t* a = table->Get(key);
    const uint8_t* b = replica_table->Get(key);
    ASSERT_EQ(a == nullptr, b == nullptr) << "key " << key;
    if (a != nullptr) {
      EXPECT_EQ(RowOf(table, key), RowOf(replica_table, key)) << "key " << key;
    }
  }
}

}  // namespace
}  // namespace xssd::db
