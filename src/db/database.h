#ifndef XSSD_DB_DATABASE_H_
#define XSSD_DB_DATABASE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/log_manager.h"
#include "db/log_record.h"

namespace xssd::db {

/// \brief One main-memory table: fixed-size rows in one arena per table,
/// found by key through a flat open-addressing index.
///
/// Every row of a table has the same size, fixed at creation or else by
/// the first Put. Rows sit back to back in fixed-size chunks of the arena,
/// allocated as rows are stored, so a row never moves: a pointer from Get
/// stays valid until that row is erased. An erased row's slot goes to the
/// next new key. The index maps key → slot by linear probing and deletes by
/// shifting entries back, so it holds no tombstones.
class Table {
 public:
  /// `row_bytes` 0 lets the first Put fix the row size.
  Table(uint32_t id, std::string name, size_t row_bytes = 0);

  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  size_t row_bytes() const { return row_bytes_; }
  size_t row_count() const { return row_count_; }

  /// The row's row_bytes() bytes, or nullptr if `key` has no row.
  const uint8_t* Get(uint64_t key) const {
    const IndexEntry& entry = index_[Probe(key)];
    return entry.row == kFree ? nullptr : RowAt(entry.row);
  }

  /// Insert or overwrite a row. kInvalidArgument unless the row is
  /// row_bytes() long (or is the first, non-empty row of an unsized table).
  Status Put(uint64_t key, std::span<const uint8_t> row);

  /// The row of `key` for the caller to write all row_bytes() bytes of,
  /// inserted if absent (its old bytes are then unspecified). The table's
  /// row size must be fixed.
  uint8_t* Emplace(uint64_t key);

  /// Apply a delta at `offset` within the row (update logging unit).
  Status ApplyDelta(uint64_t key, size_t offset, const uint8_t* delta,
                    size_t len);
  Status ApplyDelta(uint64_t key, size_t offset,
                    const std::vector<uint8_t>& delta) {
    return ApplyDelta(key, offset, delta.data(), delta.size());
  }

  bool Erase(uint64_t key);

 private:
  struct IndexEntry {
    uint64_t key;
    uint32_t row;  ///< arena slot, or kFree
  };
  static constexpr uint32_t kFree = UINT32_MAX;
  static constexpr uint32_t kInitialIndexBits = 4;
  static constexpr size_t kChunkBytes = 64 * 1024;

  void FixRowSize(size_t row_bytes);
  /// Fibonacci hashing: the top index_bits_ bits of key × 2^64/φ.
  size_t Home(uint64_t key) const {
    return (key * 0x9E3779B97F4A7C15ull) >> (64 - index_bits_);
  }
  /// Index position holding `key`, else the free one where it would go.
  size_t Probe(uint64_t key) const {
    const size_t mask = index_.size() - 1;
    size_t at = Home(key);
    while (index_[at].row != kFree && index_[at].key != key) {
      at = (at + 1) & mask;
    }
    return at;
  }
  void GrowIndex();
  uint32_t AllocateRow();
  uint8_t* RowAt(uint32_t row) const {
    return chunks_[row >> chunk_shift_].get() +
           (row & ((1u << chunk_shift_) - 1)) * row_bytes_;
  }

  uint32_t id_;
  std::string name_;
  size_t row_bytes_ = 0;
  size_t row_count_ = 0;

  // Arena: 2^chunk_shift_ rows per chunk; slots below next_row_ are in use
  // or on free_rows_.
  uint32_t chunk_shift_ = 0;
  std::vector<std::unique_ptr<uint8_t[]>> chunks_;
  uint32_t next_row_ = 0;
  std::vector<uint32_t> free_rows_;

  // Index: a power-of-two array, at most half full.
  std::vector<IndexEntry> index_;
  uint32_t index_bits_ = 0;
};

/// \brief The in-memory database: a set of tables plus the WAL.
///
/// This is the substrate playing ERMIA's part: all data lives in (host)
/// memory; only the transaction log needs persistence, which is why the
/// log path *is* the bottleneck the paper attacks.
class Database {
 public:
  explicit Database(LogManager* log) : log_(log) {}

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// `row_bytes` 0 lets the table's first Put fix its row size.
  Table* CreateTable(const std::string& name, size_t row_bytes = 0);
  Table* GetTable(uint32_t id);
  Table* GetTableByName(const std::string& name);

  LogManager* log() { return log_; }

  uint64_t NextTxnId() { return next_txn_id_++; }

 private:
  LogManager* log_;
  std::vector<std::unique_ptr<Table>> tables_;
  uint64_t next_txn_id_ = 1;
};

/// \brief A transaction: buffered writes + redo records, applied and
/// logged at commit.
///
/// Commit is pipelined (ERMIA-style group commit): Commit() applies the
/// writes, appends the redo records to the WAL, and returns immediately;
/// `on_durable` fires when the commit LSN is durable per the backend. The
/// worker is free to start its next transaction in between.
///
/// Every buffered row and delta lives in one byte buffer, and Commit writes
/// each redo record's wire image straight into the log manager's
/// group-commit buffer. A worker that reuses one Transaction (Begin) keeps
/// the buffers' capacity, so it stops allocating.
class Transaction {
 public:
  explicit Transaction(Database* db) : db_(db) { Begin(); }

  /// Start the next transaction on this object: take a fresh id and drop
  /// the buffered writes.
  void Begin();

  uint64_t id() const { return txn_id_; }

  /// Read a row (no read logging; snapshot semantics are out of scope).
  const uint8_t* Get(Table* table, uint64_t key) { return table->Get(key); }

  void Insert(Table* table, uint64_t key, const std::vector<uint8_t>& row);
  void UpdateDelta(Table* table, uint64_t key, size_t offset,
                   const std::vector<uint8_t>& delta);
  void Erase(Table* table, uint64_t key);

  /// In-place forms: buffer the write and return its bytes (the table's
  /// row_bytes() for an insert, `len` for a delta) for the caller to fill.
  /// The pointer is valid until the next write is buffered.
  uint8_t* InsertInPlace(Table* table, uint64_t key);
  uint8_t* UpdateDeltaInPlace(Table* table, uint64_t key, size_t offset,
                              size_t len);

  /// Serialized WAL footprint of the buffered writes (+ commit marker).
  size_t LogBytes() const {
    return (writes_.size() + 1) * LogRecord::kHeaderBytes + payloads_.size();
  }

  /// Apply writes, append redo records, register the durability waiter.
  /// Returns the commit LSN.
  uint64_t Commit(std::function<void(Status)> on_durable);

  size_t write_count() const { return writes_.size(); }

 private:
  struct PendingWrite {
    Table* table;
    uint64_t key;
    LogOp op;
    size_t at;   ///< payload offset in payloads_
    size_t len;  ///< payload bytes; an update's start with its row offset
  };

  /// Buffer a write with a `len`-byte payload; returns the payload.
  uint8_t* Buffer(Table* table, uint64_t key, LogOp op, size_t len);
  void Apply(const PendingWrite& write, const uint8_t* payload);

  Database* db_;
  uint64_t txn_id_ = 0;
  std::vector<PendingWrite> writes_;
  std::vector<uint8_t> payloads_;  ///< every write's log payload, in order
};

}  // namespace xssd::db

#endif  // XSSD_DB_DATABASE_H_
